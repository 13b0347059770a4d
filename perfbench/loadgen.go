package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// arrival is one open-loop request: when it is due, relative to the start
// of the run, and which stream it belongs to.
type arrival struct {
	due  time.Duration
	kind int
}

// poissonSchedule merges one Poisson stream per rate over [0, dur). The
// arrivals depend on seed, rates and dur alone; kind is the rate's index.
func poissonSchedule(seed int64, rates []float64, dur time.Duration) []arrival {
	var out []arrival
	for k, rate := range rates {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(k)))
		for t := 0.0; ; {
			t += rng.ExpFloat64() / rate
			due := time.Duration(t * float64(time.Second))
			if due >= dur {
				break
			}
			out = append(out, arrival{due: due, kind: k})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// openLoop issues each arrival at its due time whether or not earlier
// requests finished, as independent users do. issue runs a request; it
// returns once the request is handed off, and its done callback reports
// completion. Latency is taken from the due time, so a stall is charged to
// every request it delayed, and the generator's own lateness (start minus
// due) is recorded separately.
type openLoop struct {
	now   func() time.Duration // time since the run started
	sleep func(time.Duration)
}

// run dispatches the schedule and waits for every request to complete.
// issue must call done exactly once, from any goroutine.
func (o openLoop) run(sched []arrival, issue func(i int, a arrival, done func(ok bool)), lat []*series, late *hist) (failed int) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, a := range sched {
		for d := a.due - o.now(); d > 0; d = a.due - o.now() {
			o.sleep(d)
		}
		late.record(o.now() - a.due)
		wg.Add(1)
		due := a.due
		kind := a.kind
		issue(i, a, func(ok bool) {
			d := o.now() - due
			mu.Lock()
			lat[kind].record(due, d, ok)
			if !ok {
				failed++
			}
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	return failed
}

// realClock returns the open loop's clock, started now. It pins the
// calling goroutine to its OS thread and sleeps there with nanosleep at a
// timer slack of 1ns: the runtime's timers wake an idle process up to a
// millisecond late, which would swamp sub-millisecond latencies. The
// caller must run the loop on the goroutine that called realClock, and
// should let that goroutine exit afterwards so the thread is discarded.
func realClock() openLoop {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	// Best effort: with the default slack of 50us the loop is only later.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	start := time.Now()
	return openLoop{
		now: func() time.Duration { return time.Since(start) },
		sleep: func(d time.Duration) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up is re-slept by run
		},
	}
}
