package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/gc"
	"repro/internal/kvstore"
	"repro/internal/transport"
	"repro/internal/transport/faultnet"
	"repro/internal/transport/udpnet"
)

// The deployment mirrors cmd/samoa-node: three replicas on loopback UDP,
// vca-basic, its RTO and failure-detector period, gc defaults otherwise.
const (
	replicas   = 3
	rto        = 15 * time.Millisecond
	fdInterval = 25 * time.Millisecond
	lossyDrop  = 0.01
)

// kvCluster is one running three-replica store with its seams.
type kvCluster struct {
	nets    []*udpnet.Net
	faults  []*faultnet.Net // nil entries unless lossy
	stores  []*kvstore.Store
	ctrls   []spawnStatser
	sends   []*sendStats
	tracers []*spanTracer // nil entries when untraced
	cc      []*ccTimes    // nil entries when untraced
}

func newKVCluster(seed int64, lossy, traced bool, origin time.Time) (*kvCluster, error) {
	nets, err := udpnet.NewCluster(replicas)
	if err != nil {
		return nil, err
	}
	c := &kvCluster{
		nets:    nets,
		faults:  make([]*faultnet.Net, replicas),
		ctrls:   make([]spawnStatser, replicas),
		sends:   make([]*sendStats, replicas),
		tracers: make([]*spanTracer, replicas),
		cc:      make([]*ccTimes, replicas),
	}
	ids := make([]transport.NodeID, replicas)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	for i := 0; i < replicas; i++ {
		var tr transport.Transport = nets[i]
		if lossy {
			c.faults[i] = faultnet.New(faultnet.Config{
				Inner: nets[i], Seed: seed*31 + int64(i), Rates: faultnet.Rates{Drop: lossyDrop},
			})
			tr = c.faults[i]
		}
		c.sends[i] = &sendStats{}
		vca := cc.NewVCABasic()
		c.ctrls[i] = vca
		site := gc.Config{RTO: rto, FDInterval: fdInterval, Controller: vca}
		if traced {
			c.sends[i].times = newSyncHist()
			c.cc[i] = newCCTimes()
			site.Controller = wrapController(vca, c.cc[i])
			c.tracers[i] = newSpanTracer(origin)
			site.Tracer = c.tracers[i]
		}
		c.stores = append(c.stores, kvstore.New(kvstore.Config{
			Net: &countingNet{Transport: tr, st: c.sends[i]}, ID: ids[i],
			InitialView: gc.NewView(ids...), Site: site,
		}))
	}
	for _, s := range c.stores {
		s.Start()
	}
	return c, nil
}

// transportSent is the Sent counter of the transport the sites were given
// (faultnet's merged count when lossy).
func (c *kvCluster) transportSent(i int) uint64 {
	if c.faults[i] != nil {
		return c.faults[i].Stats().Sent
	}
	return c.nets[i].Stats().Sent
}

// ready writes one key through every replica at once and waits until
// every replica has applied all three. A put returns once its own replica
// applied it, so the wait rarely spins.
func (c *kvCluster) ready() error {
	errs := make(chan error, replicas)
	for i, s := range c.stores {
		go func(i int, s *kvstore.Store) { errs <- s.Put(fmt.Sprintf("ready%d", i), "1") }(i, s)
	}
	for range c.stores {
		if err := <-errs; err != nil {
			return fmt.Errorf("ready put: %w", err)
		}
	}
	return waitFor(10*time.Second, 0, func() bool {
		for _, s := range c.stores {
			if s.Len() < replicas {
				return false
			}
		}
		return true
	})
}

// waitFor polls cond every poll until it holds or limit passes; a zero
// poll spins, yielding to other goroutines, which avoids the timer's
// coarse wake-up when a condition is about to hold.
func waitFor(limit, poll time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not reached within %v", limit)
		}
		if poll == 0 {
			runtime.Gosched()
		} else {
			time.Sleep(poll)
		}
	}
	return nil
}

func (c *kvCluster) stop() {
	for _, s := range c.stores {
		s.Stop()
	}
	for i, n := range c.nets {
		if c.faults[i] != nil {
			c.faults[i].Close()
		} else {
			n.Close()
		}
	}
}

// setupCluster builds and readies a cluster setupRuns times, keeping the
// last one and reporting every set-up's duration.
func setupCluster(seed int64, lossy, traced bool, origin time.Time) (*kvCluster, []time.Duration, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		c, err := newKVCluster(seed, lossy, traced, origin)
		if err != nil {
			return nil, nil, err
		}
		if err := c.ready(); err != nil {
			c.stop()
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
		if i == setupRuns-1 {
			return c, times, nil
		}
		c.stop()
		if bad := c.stoppedGate(); len(bad) > 0 {
			return nil, nil, fmt.Errorf("set-up %d: %s", i, bad[0])
		}
	}
}

// putRec is one put the load generator issued: its key and the index of
// its value in the value pool.
type putRec struct {
	key string
	val int
}

// ackLog records, per replica, the puts acknowledged there.
type ackLog struct {
	mu  sync.Mutex
	per [replicas][]putRec
}

func (a *ackLog) add(r int, p putRec) {
	a.mu.Lock()
	a.per[r] = append(a.per[r], p)
	a.mu.Unlock()
}

func (a *ackLog) count() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, p := range a.per {
		n += len(p)
	}
	return int64(n)
}

// pick returns the put at fraction u of replica r's acknowledged puts.
func (a *ackLog) pick(r int, u float64) (putRec, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.per[r]) == 0 {
		return putRec{}, false
	}
	return a.per[r][int(u*float64(len(a.per[r])))], true
}

// valuePool generates n distinct printable values of size bytes.
func valuePool(seed int64, n, size int) []string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	b := make([]byte, size)
	for i := range out {
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		out[i] = string(b)
	}
	return out
}

// kvSnap is a reading of every counter the per-layer metrics difference.
type kvSnap struct {
	at                   int64 // ns since origin
	acked                int64
	byKind               [4]uint64
	bytes                uint64
	sendNs               int64
	fast, slow           uint64
	decides0             uint64
	droppedStale, pumpRt uint64
	oversize, sendErrs   uint64
	faultDrops           uint64
	spawnH, enterH, snd  *hist
}

func (c *kvCluster) snap(origin time.Time, acked int64) kvSnap {
	s := kvSnap{at: int64(time.Since(origin)), acked: acked}
	spawnH, enterH, snd := newHist(), newHist(), newHist()
	for i, st := range c.sends {
		for k := range st.byKind {
			s.byKind[k] += st.byKind[k].Load()
		}
		s.bytes += st.bytes.Load()
		s.sendNs += st.sendNs.Load()
		f, sl := c.ctrls[i].SpawnStats()
		s.fast += f
		s.slow += sl
		site := c.stores[i].Site()
		s.droppedStale += site.DroppedStale()
		s.pumpRt += site.PumpRetries()
		us := c.nets[i].Stats()
		s.oversize += us.DroppedOversize
		s.sendErrs += us.SendErrors
		if c.faults[i] != nil {
			s.faultDrops += c.faults[i].Stats().DroppedLoss
		}
		if c.cc[i] != nil {
			spawnH.merge(c.cc[i].spawn.snapshot())
			enterH.merge(c.cc[i].enter.snapshot())
			snd.merge(st.times.snapshot())
		}
	}
	if c.tracers[0] != nil {
		s.decides0 = c.tracers[0].decides.Load()
	}
	s.spawnH, s.enterH, s.snd = spawnH, enterH, snd
	return s
}

// gate checks the run's outputs after the load stopped: every
// acknowledged put is on all replicas with its value, the replicas are
// equal, and every replica applied the same number of puts (one per key,
// since keys are fresh). It returns the violations found.
func (c *kvCluster) gate(acks *ackLog, pool []string, base []kvBase) []string {
	var bad []string
	var all []putRec
	for r := range acks.per {
		all = append(all, acks.per[r]...)
	}
	missing := func() (string, bool) {
		for i, s := range c.stores {
			m := s.SnapshotMap()
			for _, p := range all {
				if v, ok := m[p.key]; !ok || v != pool[p.val] {
					return fmt.Sprintf("replica %d: acknowledged put %q is missing or holds another value (present=%v)", i, p.key, ok), true
				}
			}
		}
		return "", false
	}
	if err := waitFor(15*time.Second, 2*time.Millisecond, func() bool { _, miss := missing(); return !miss }); err != nil {
		msg, _ := missing()
		bad = append(bad, "after quiescence: "+msg)
	}
	// Late applies of puts that timed out may still be in flight; wait
	// until the replicas agree before comparing them.
	agree := func() bool {
		m0 := c.stores[0].SnapshotMap()
		for _, s := range c.stores[1:] {
			if !reflect.DeepEqual(m0, s.SnapshotMap()) {
				return false
			}
		}
		return true
	}
	if err := waitFor(15*time.Second, 2*time.Millisecond, agree); err != nil {
		bad = append(bad, "replicas differ under SnapshotMap")
	}
	var applied []uint64
	for i, s := range c.stores {
		da := s.Applied() - base[i].applied
		dl := uint64(s.Len() - base[i].len)
		if da != dl {
			bad = append(bad, fmt.Sprintf("replica %d applied %d ops for %d new keys", i, da, dl))
		}
		applied = append(applied, da)
	}
	for _, a := range applied {
		if a != applied[0] || a < uint64(len(all)) {
			bad = append(bad, fmt.Sprintf("applied deltas %v: want %d equal deltas of at least the %d acknowledged puts", applied, replicas, len(all)))
			break
		}
	}
	return bad
}

// stoppedGate runs after the cluster stopped: no site recorded an error,
// stopping included, and the transport decorator saw exactly the sends
// the transport counted.
func (c *kvCluster) stoppedGate() []string {
	var bad []string
	for i, s := range c.stores {
		for _, err := range s.Errs() {
			bad = append(bad, fmt.Sprintf("replica %d: %v", i, err))
		}
		if got, want := c.sends[i].sends(), c.transportSent(i); got != want {
			bad = append(bad, fmt.Sprintf("node %d: decorator counted %d sends, transport %d", i, got, want))
		}
	}
	return bad
}

type kvBase struct {
	applied uint64
	len     int
}

func (c *kvCluster) bases() []kvBase {
	b := make([]kvBase, replicas)
	for i, s := range c.stores {
		b[i] = kvBase{applied: s.Applied(), len: s.Len()}
	}
	return b
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
