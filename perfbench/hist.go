package main

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// subBits sets the histogram's precision: values below 2<<subBits ns are
// kept exactly, larger ones in buckets no wider than 1/(1<<subBits) of
// their value, so percentiles keep every digit a run can resolve.
const subBits = 10

// maxShift covers durations up to about 2^(subBits+maxShift+1) ns (~20 min).
const maxShift = 30

// hist is a log-linear latency histogram in nanoseconds. It is not safe
// for concurrent use; each recording goroutine owns one and they are
// merged after the run.
type hist struct {
	counts []uint64
	n      uint64
}

func newHist() *hist {
	return &hist{counts: make([]uint64, (maxShift+2)<<subBits)}
}

func bucketOf(v uint64) int {
	if v < 2<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - (subBits + 1)
	if shift > maxShift {
		shift, v = maxShift, (2<<(subBits+maxShift))-1
	}
	return (shift+1)<<subBits + int(v>>uint(shift)) - 1<<subBits
}

// bucketMid is the midpoint of a bucket's value range.
func bucketMid(i int) float64 {
	if i < 2<<subBits {
		return float64(i)
	}
	shift := i>>subBits - 1
	lo := uint64(i-(shift+1)<<subBits+1<<subBits) << uint(shift)
	return float64(lo) + float64(uint64(1)<<uint(shift))/2
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile reports the q-quantile in nanoseconds. It refuses a quantile
// with fewer than ten samples beyond it, which a sample of that size
// cannot support.
func (h *hist) quantile(q float64) (float64, error) {
	if float64(h.n)*(1-q) < 10 {
		return 0, fmt.Errorf("p%g needs at least 10 samples beyond it; have %d samples", q*100, h.n)
	}
	rank := uint64(q * float64(h.n))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i), nil
		}
	}
	return bucketMid(len(h.counts) - 1), nil
}

// syncHist is a hist shared by the goroutines a seam runs on.
type syncHist struct {
	mu sync.Mutex
	h  *hist
}

func newSyncHist() *syncHist { return &syncHist{h: newHist()} }

func (s *syncHist) record(d time.Duration) {
	s.mu.Lock()
	s.h.record(d)
	s.mu.Unlock()
}

// snapshot copies the histogram, so a window's samples can be taken as
// the difference of two snapshots.
func (s *syncHist) snapshot() *hist {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := newHist()
	c.merge(s.h)
	return c
}

// since returns the samples recorded after base was snapshotted.
func (h *hist) since(base *hist) *hist {
	d := newHist()
	for i := range h.counts {
		d.counts[i] = h.counts[i] - base.counts[i]
	}
	d.n = h.n - base.n
	return d
}

// slotLen is the shortest window a run's latencies are split into.
const slotLen = 2 * time.Second

// series is a run's latencies split into equal consecutive windows of at
// least slotLen (or the whole run, if shorter) by when each operation
// started or, in an open loop, was due. A failed operation's latency is
// recorded like any other, so it counts against the percentiles; ok
// counts the operations that succeeded. It is not safe for concurrent
// use.
type series struct {
	width time.Duration
	slots []*hist
	ok    []uint64
}

func newSeries(dur time.Duration) *series {
	n := int(dur / slotLen)
	if n < 1 {
		n = 1
	}
	s := &series{width: dur / time.Duration(n), slots: make([]*hist, n), ok: make([]uint64, n)}
	for i := range s.slots {
		s.slots[i] = newHist()
	}
	return s
}

func (s *series) record(at, d time.Duration, ok bool) {
	i := int(at / s.width)
	if i >= len(s.slots) {
		i = len(s.slots) - 1
	} else if i < 0 {
		i = 0
	}
	s.slots[i].record(d)
	if ok {
		s.ok[i]++
	}
}

func (s *series) merge(o *series) {
	for i := range s.slots {
		s.slots[i].merge(o.slots[i])
		s.ok[i] += o.ok[i]
	}
}

func (s *series) succeeded() int64 {
	var n uint64
	for _, k := range s.ok {
		n += k
	}
	return int64(n)
}

func (s *series) all() *hist {
	h := newHist()
	for _, sl := range s.slots {
		h.merge(sl)
	}
	return h
}

// slotMedian is the median over the windows of f applied to each window's
// latencies and success count: a burst of noise from outside the program
// moves one window, not the result. f must succeed on every window.
func (s *series) slotMedian(f func(h *hist, ok uint64) (float64, error)) (float64, error) {
	vs := make([]float64, len(s.slots))
	for i, sl := range s.slots {
		v, err := f(sl, s.ok[i])
		if err != nil {
			return 0, fmt.Errorf("window %d: %w", i, err)
		}
		vs[i] = v
	}
	sort.Float64s(vs)
	if len(vs)%2 == 1 {
		return vs[len(vs)/2], nil
	}
	return (vs[len(vs)/2-1] + vs[len(vs)/2]) / 2, nil
}
