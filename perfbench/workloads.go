package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
)

// Workload shapes. The why of each is in BENCHMARK.json and NOTES.md.
const (
	setupRuns    = 31 // set-ups per phase; setup_s is their median
	isoSetupRuns = 51
	isoLanes     = 16
	isoZipfS     = 1.2
	isoWorkers   = 2 // closed-loop clients, at most nproc
	kvWriters    = 2 // closed-loop writers on replicas 0 and 1
	closedValue  = 64
	openValue    = 1024
	openPutRate  = 1000.0 // puts/s, below what kv-closed's two writers reach
	openGetRate  = 1000.0
	poolSize     = 256 // distinct values; keys are always fresh
	prefillPuts  = 32  // per replica, so that reads have keys from the start
	kvWarmup     = 300 * time.Millisecond
)

// phase is what one measured phase of a workload produced.
type phase struct {
	setups        []time.Duration
	window        time.Duration
	ops           int64   // primary operations acknowledged in the window
	lat           *series // primary operation latency
	getLat        *hist   // kv-open reads, from their due time
	getCall       *hist   // kv-open reads, the Get call alone
	late          *hist   // kv-open generator lateness
	attempted     int64
	failed        int64
	heapSetup     uint64 // live heap when set-up ended
	heapEnd       uint64 // live heap when the run ended
	opsSinceSetup int64
	violations    []string
	layer         map[string]float64 // per-layer metrics, traced phases only
}

// ---- iso-zipf -------------------------------------------------------

// lane is one single-handler microprotocol's state; the handler's
// increment is deliberately not atomic, so a lost update under isolation
// shows in the final count. Padding keeps lanes on separate cache lines.
type lane struct {
	n uint64
	_ [56]byte
}

type isoStack struct {
	stack *core.Stack
	specs []*core.Spec
	ets   []*core.EventType
	lanes []lane
	ctrl  spawnStatser
	cc    *ccTimes
}

func newISOStack(traced bool) (*isoStack, error) {
	vca := cc.NewVCABasic()
	s := &isoStack{lanes: make([]lane, isoLanes), ctrl: vca}
	var ctrl core.Controller = vca
	if traced {
		s.cc = newCCTimes()
		ctrl = wrapController(vca, s.cc)
	}
	s.stack = core.NewStack(ctrl, core.WithName("iso"))
	for i := 0; i < isoLanes; i++ {
		l := &s.lanes[i]
		mp := core.NewMicroprotocol(fmt.Sprintf("lane%02d", i))
		h := mp.AddHandler("inc", func(*core.Context, core.Message) error {
			l.n++
			return nil
		})
		et := core.NewEventType(fmt.Sprintf("Lane%02d", i))
		s.stack.Register(mp)
		s.stack.Bind(et, h)
		s.specs = append(s.specs, core.Access(mp))
		s.ets = append(s.ets, et)
	}
	// The first computation seals the stack; run one per lane so set-up
	// ends with every lane's footprint compiled.
	for i := range s.specs {
		if err := s.stack.External(s.specs[i], s.ets[i], nil); err != nil {
			return nil, err
		}
		s.lanes[i].n = 0
	}
	return s, nil
}

// zipfLanes draws n lanes zipfian over isoLanes for one worker.
func zipfLanes(seed int64, worker, n int) []uint8 {
	rng := rand.New(rand.NewSource(seed*7919 + int64(worker)))
	z := rand.NewZipf(rng, isoZipfS, 1, isoLanes-1)
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(z.Uint64())
	}
	return out
}

func runISO(seed int64, dur time.Duration, traced bool) (*phase, error) {
	p := &phase{}
	var s *isoStack
	for i := 0; i < isoSetupRuns; i++ {
		t0 := time.Now()
		st, err := newISOStack(traced)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0))
		if s != nil {
			if err := s.stack.Close(); err != nil {
				return nil, err
			}
		}
		s = st
	}
	seqs := make([][]uint8, isoWorkers)
	for w := range seqs {
		seqs[w] = zipfLanes(seed, w, 1<<16)
	}
	p.heapSetup = liveHeap()
	f0, s0 := s.ctrl.SpawnStats()
	var spawn0, enter0 *hist
	if traced {
		spawn0, enter0 = s.cc.spawn.snapshot(), s.cc.enter.snapshot()
	}

	hs := make([]*series, isoWorkers)
	issued := make([][isoLanes]uint64, isoWorkers)
	fails := make([]int64, isoWorkers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < isoWorkers; w++ {
		hs[w] = newSeries(dur)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seq, h := seqs[w], hs[w]
			for i := 0; ; i++ {
				t0 := time.Now()
				if t0.After(deadline) {
					return
				}
				l := seq[i&(len(seq)-1)]
				err := s.stack.External(s.specs[l], s.ets[l], nil)
				d := time.Since(t0)
				issued[w][l]++
				if err != nil {
					fails[w]++
				}
				h.record(t0.Sub(start), d, err == nil)
			}
		}(w)
	}
	wg.Wait()
	p.window = time.Since(start)
	p.lat = hs[0]
	for w := range hs {
		if w > 0 {
			p.lat.merge(hs[w])
		}
		p.failed += fails[w]
	}
	p.ops = p.lat.succeeded()
	p.attempted = p.ops + p.failed
	p.opsSinceSetup = p.ops
	for l := 0; l < isoLanes; l++ {
		var want uint64
		for w := range issued {
			want += issued[w][l]
		}
		if got := s.lanes[l].n; got != want {
			p.violations = append(p.violations, fmt.Sprintf("lane %d counted %d of %d computations (lost update)", l, got, want))
		}
	}
	p.heapEnd = liveHeap()
	if err := s.stack.Close(); err != nil {
		p.violations = append(p.violations, fmt.Sprintf("stack close: %v", err))
	}
	if traced {
		f1, s1 := s.ctrl.SpawnStats()
		spawnH := s.cc.spawn.snapshot().since(spawn0)
		enterH := s.cc.enter.snapshot().since(enter0)
		p.layer = map[string]float64{
			"cc.fast_ratio": ratio(float64(f1-f0), float64(f1-f0+s1-s0)),
		}
		if err := putQuantiles(p.layer, "cc.spawn_us", spawnH, 1e3, 0.5, 0.99); err != nil {
			return nil, err
		}
		if err := putQuantiles(p.layer, "cc.enter_us", enterH, 1e3, 0.99); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// ---- kv-closed and kv-lossy -----------------------------------------

func runKVClosed(seed int64, dur time.Duration, lossy, traced bool) (*phase, error) {
	origin := time.Now()
	c, setups, err := setupCluster(seed, lossy, traced, origin)
	if err != nil {
		return nil, err
	}
	p := &phase{setups: setups}
	base := c.bases()
	p.heapSetup = liveHeap()
	pool := valuePool(seed, poolSize, closedValue)
	acks := &ackLog{}
	var attempted, failed atomic.Int64
	next := make([]int, kvWriters)
	rngs := make([]*rand.Rand, kvWriters)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(seed*104729 + int64(w)))
	}
	// loop runs the closed-loop writers until deadline; hs, when set,
	// receives their latencies.
	loop := func(start, deadline time.Time, hs []*series) {
		var wg sync.WaitGroup
		for w := 0; w < kvWriters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					rec := putRec{key: fmt.Sprintf("c%d-%d", w, next[w]), val: rngs[w].Intn(len(pool))}
					next[w]++
					t0 := time.Now()
					err := c.stores[w].Put(rec.key, pool[rec.val])
					d := time.Since(t0)
					attempted.Add(1)
					if hs != nil {
						hs[w].record(t0.Sub(start), d, err == nil)
					}
					if err != nil {
						failed.Add(1)
						continue
					}
					acks.add(w, rec)
				}
			}(w)
		}
		wg.Wait()
	}
	warm := time.Now()
	loop(warm, warm.Add(kvWarmup), nil)
	hs := []*series{newSeries(dur), newSeries(dur)}
	s0 := c.snap(origin, acks.count())
	start := time.Now()
	loop(start, start.Add(dur), hs)
	p.window = time.Since(start)
	s1 := c.snap(origin, acks.count())
	hs[0].merge(hs[1])
	p.lat = hs[0]
	p.ops = p.lat.succeeded()
	return finishKV(c, p, acks, pool, base, s0, s1, attempted.Load(), failed.Load())
}

// ---- kv-open ----------------------------------------------------------

func runKVOpen(seed int64, dur time.Duration, traced bool) (*phase, error) {
	origin := time.Now()
	c, setups, err := setupCluster(seed, false, traced, origin)
	if err != nil {
		return nil, err
	}
	p := &phase{setups: setups}
	base := c.bases()
	p.heapSetup = liveHeap()
	pool := valuePool(seed, poolSize, openValue)
	sched := poissonSchedule(seed, []float64{openPutRate, openGetRate}, dur)
	rng := rand.New(rand.NewSource(seed*15485863 + 1))
	vals := make([]int, len(sched))      // a put's value, as an index into pool
	picks := make([]float64, len(sched)) // a read's key, as a fraction of the keys acknowledged
	for i := range sched {
		vals[i], picks[i] = rng.Intn(len(pool)), rng.Float64()
	}
	acks := &ackLog{}
	var attempted, failed atomic.Int64

	// Warm-up: a few acknowledged keys on every replica.
	var wg sync.WaitGroup
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < prefillPuts; i++ {
				rec := putRec{key: fmt.Sprintf("pre%d-%d", r, i), val: i % len(pool)}
				attempted.Add(1)
				if err := c.stores[r].Put(rec.key, pool[rec.val]); err != nil {
					failed.Add(1)
					continue
				}
				acks.add(r, rec)
			}
		}(r)
	}
	wg.Wait()

	lat := []*series{newSeries(dur), newSeries(dur)}
	late := newHist()
	getCall := newHist()
	puts, gets := 0, 0
	issue := func(i int, a arrival, done func(bool)) {
		attempted.Add(1)
		if a.kind == 0 {
			r := puts % replicas
			rec := putRec{key: fmt.Sprintf("o%d", puts), val: vals[i]}
			puts++
			go func() {
				err := c.stores[r].Put(rec.key, pool[rec.val])
				if err == nil {
					acks.add(r, rec)
				}
				done(err == nil)
			}()
			return
		}
		// Reads run on the dispatcher: they take microseconds.
		r := gets % replicas
		gets++
		rec, _ := acks.pick(r, picks[i])
		t0 := time.Now()
		v, ok := c.stores[r].Get(rec.key)
		getCall.record(time.Since(t0))
		if !ok || v != pool[rec.val] {
			p.violations = append(p.violations, fmt.Sprintf("replica %d read %q as (%d bytes, present=%v), not its acknowledged value", r, rec.key, len(v), ok))
		}
		done(ok && v == pool[rec.val])
	}
	s0 := c.snap(origin, acks.count())
	start := time.Now()
	var openFailed int
	dispatched := make(chan struct{})
	go func() {
		// realClock pins this goroutine's thread, which is discarded
		// when the goroutine exits.
		openFailed = realClock().run(sched, issue, lat, late)
		close(dispatched)
	}()
	<-dispatched
	p.window = time.Since(start)
	failed.Add(int64(openFailed))
	s1 := c.snap(origin, acks.count())
	p.lat = lat[0]
	p.getLat = lat[1].all()
	p.getCall = getCall
	p.late = late
	p.ops = s1.acked - s0.acked
	return finishKV(c, p, acks, pool, base, s0, s1, attempted.Load(), failed.Load())
}

// finishKV runs the correctness gate, takes the heap reading, stops the
// cluster and derives the per-layer metrics of a traced phase.
func finishKV(c *kvCluster, p *phase, acks *ackLog, pool []string, base []kvBase, s0, s1 kvSnap, attempted, failed int64) (*phase, error) {
	p.attempted, p.failed = attempted, failed
	p.opsSinceSetup = acks.count()
	p.violations = append(p.violations, c.gate(acks, pool, base)...)
	p.heapEnd = liveHeap()
	c.stop()
	p.violations = append(p.violations, c.stoppedGate()...)
	if c.tracers[0] == nil {
		return p, nil
	}
	puts := float64(s1.acked - s0.acked)
	per := func(d uint64) float64 { return ratio(float64(d), puts) }
	m := map[string]float64{
		"cc.fast_ratio":            ratio(float64(s1.fast-s0.fast), float64(s1.fast-s0.fast+s1.slow-s0.slow)),
		"cc.spawns_per_put":        per(s1.spawnH.n - s0.spawnH.n),
		"gc.ops_per_instance":      ratio(puts, float64(s1.decides0-s0.decides0)),
		"gc.dropped_stale":         float64(s1.droppedStale - s0.droppedStale),
		"gc.pump_retries":          float64(s1.pumpRt - s0.pumpRt),
		"transport.data_per_put":   per(s1.byKind[kindData] - s0.byKind[kindData]),
		"transport.acks_per_put":   per(s1.byKind[kindAck] - s0.byKind[kindAck]),
		"transport.beats_per_put":  per(s1.byKind[kindBeat] - s0.byKind[kindBeat]),
		"transport.bytes_per_put":  per(s1.bytes - s0.bytes),
		"udpnet.dropped_oversize":  float64(s1.oversize - s0.oversize),
		"udpnet.send_errors":       float64(s1.sendErrs - s0.sendErrs),
		"faultnet.dropped_per_put": per(s1.faultDrops - s0.faultDrops),
	}
	for _, q := range []struct {
		name string
		h    *hist
		qs   []float64
	}{
		{"cc.spawn_us", s1.spawnH.since(s0.spawnH), []float64{0.5, 0.99}},
		{"cc.enter_us", s1.enterH.since(s0.enterH), []float64{0.99}},
		{"transport.send_us", s1.snd.since(s0.snd), []float64{0.5, 0.99}},
	} {
		if err := putQuantiles(m, q.name, q.h, 1e3, q.qs...); err != nil {
			return nil, err
		}
	}
	handlers := 0
	self := make([]int64, len(mpBuckets)+1)
	for _, t := range c.tracers {
		t.mu.Lock()
		spans := t.spans
		t.mu.Unlock()
		for _, s := range spans {
			if s.start >= s0.at && s.start < s1.at {
				handlers++
			}
		}
		for i, v := range selfTimes(spans, s0.at, s1.at) {
			self[i] += v
		}
	}
	// netout's handler only calls Endpoint.Send; the Send spans are the
	// transport's, not netout's.
	self[mpBucket("netout")] -= s1.sendNs - s0.sendNs
	m["core.handlers_per_put"] = ratio(float64(handlers), puts)
	for i, b := range mpBuckets {
		m["core.self_us_per_put."+b] = ratio(float64(self[i])/1e3, puts)
	}
	p.layer = m
	return p, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// putQuantiles stores name_pXX for each quantile of h, scaled by 1/div.
func putQuantiles(m map[string]float64, name string, h *hist, div float64, qs ...float64) error {
	for _, q := range qs {
		v, err := h.quantile(q)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[fmt.Sprintf("%s_p%g", name, q*100)] = v / div
	}
	return nil
}
