package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
)

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	rates := []float64{1000, 500}
	a := poissonSchedule(7, rates, 2*time.Second)
	b := poissonSchedule(7, rates, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, rates, 2*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	counts := make([]int, len(rates))
	for i, x := range a {
		counts[x.kind]++
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d due %v before its predecessor %v", i, x.due, a[i-1].due)
		}
		if x.due < 0 || x.due >= 2*time.Second {
			t.Fatalf("arrival %d due %v outside the run", i, x.due)
		}
	}
	for k, r := range rates {
		want := 2 * r
		if got := float64(counts[k]); got < 0.9*want || got > 1.1*want {
			t.Errorf("stream %d: %v arrivals, want about %v", k, got, want)
		}
	}
}

// fakeClock is an open-loop clock whose sleeps oversleep by a set amount
// and whose requests take a set time.
type fakeClock struct{ t, overslept time.Duration }

func (c *fakeClock) loop() openLoop {
	return openLoop{
		now:   func() time.Duration { return c.t },
		sleep: func(d time.Duration) { c.t += d + c.overslept },
	}
}

func TestOpenLoopTimesFromDueAndAccountsLateness(t *testing.T) {
	c := &fakeClock{overslept: 3 * time.Millisecond}
	sched := []arrival{{due: 10 * time.Millisecond}, {due: 11 * time.Millisecond}, {due: 40 * time.Millisecond, kind: 1}}
	lat := []*series{newSeries(time.Second), newSeries(time.Second)}
	late := newHist()
	const service = 2 * time.Millisecond
	failed := c.loop().run(sched, func(i int, a arrival, done func(bool)) {
		c.t += service
		done(i != 2)
	}, lat, late)
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
	// Arrival 0 starts 3ms late; arrival 1, due at 11ms, cannot start
	// before arrival 0 returned at 15ms; arrival 2 starts 3ms late and
	// fails, which still records its latency.
	ms := time.Millisecond
	for _, c := range []struct {
		name string
		h    *hist
		want []time.Duration
	}{
		{"lateness", late, []time.Duration{3 * ms, 4 * ms, 3 * ms}},
		{"kind 0 latency from due time", lat[0].all(), []time.Duration{5 * ms, 6 * ms}},
		{"kind 1 latency from due time", lat[1].all(), []time.Duration{5 * ms}},
	} {
		want := newHist()
		for _, d := range c.want {
			want.record(d)
		}
		if !reflect.DeepEqual(c.h, want) {
			t.Errorf("%s: %d samples, want %v", c.name, c.h.n, c.want)
		}
	}
	if ok0, ok1 := lat[0].succeeded(), lat[1].succeeded(); ok0 != 2 || ok1 != 0 {
		t.Errorf("succeeded = %d and %d, want 2 and 0", ok0, ok1)
	}
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	h := newHist()
	for i := 1; i <= 999; i++ {
		h.record(time.Duration(i))
	}
	if _, err := h.quantile(0.99); err == nil {
		t.Error("p99 reported from 999 samples, which leave fewer than 10 beyond it")
	}
	h.record(1000)
	v, err := h.quantile(0.99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := h.quantile(0.5); err != nil || v != 500 {
		t.Errorf("p50 of 1..1000 = %v, %v; want 500", v, err)
	}
	small := newHist()
	for i := 0; i < 19; i++ {
		small.record(time.Millisecond)
	}
	if _, err := small.quantile(0.5); err == nil {
		t.Error("p50 reported from 19 samples")
	}
}

func TestHistBucketsHoldTheirValues(t *testing.T) {
	for _, v := range []uint64{0, 1, 2047, 2048, 2049, 123456, 1 << 33, 987654321} {
		mid := bucketMid(bucketOf(v))
		if d := mid - float64(v); d > float64(v)/(1<<subBits)+0.5 || -d > float64(v)/(1<<subBits)+0.5 {
			t.Errorf("value %d lands in a bucket centred at %v", v, mid)
		}
	}
}

func TestSinglePutSendsDataAndAcks(t *testing.T) {
	c, err := newKVCluster(1, false, false, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	before := make([][4]uint64, replicas)
	for i, st := range c.sends {
		for k := range st.byKind {
			before[i][k] = st.byKind[k].Load()
		}
	}
	if err := c.stores[0].Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	var got [4]uint64
	for i, st := range c.sends {
		for k := range st.byKind {
			got[k] += st.byKind[k].Load() - before[i][k]
		}
	}
	if got[kindData] == 0 || got[kindAck] == 0 || got[kindOther] != 0 {
		t.Errorf("one put sent data=%d ack=%d unclassified=%d; want data and acks only (and beats)", got[kindData], got[kindAck], got[kindOther])
	}
}

func TestWrapControllerKeepsOptionalInterfaces(t *testing.T) {
	ifaces := map[string]reflect.Type{
		"core.Reconfigurer": reflect.TypeOf((*core.Reconfigurer)(nil)).Elem(),
		"core.Restorer":     reflect.TypeOf((*core.Restorer)(nil)).Elem(),
		"SpawnStats":        reflect.TypeOf((*spawnStatser)(nil)).Elem(),
	}
	seen := map[string]bool{}
	for _, c := range []core.Controller{
		cc.NewVCABasic(), cc.NewVCABound(), cc.NewVCARoute(), cc.NewVCARW(),
		cc.NewWaitDie(), cc.NewTSO(), cc.NewSerial(), cc.NewNone(),
	} {
		w := wrapController(c, newCCTimes())
		for name, it := range ifaces {
			has := reflect.TypeOf(c).Implements(it)
			if reflect.TypeOf(w).Implements(it) != has {
				t.Errorf("%s: wrapped implements %s = %v, controller = %v", c.Name(), name, !has, has)
			}
			seen[name] = seen[name] || has
		}
	}
	for name := range ifaces {
		if !seen[name] {
			t.Errorf("no controller implements %s; the test no longer covers its forwarding", name)
		}
	}
	// Forwarded calls reach the wrapped controller.
	vca := cc.NewVCABasic()
	w := wrapController(vca, newCCTimes())
	if _, err := w.Spawn(context.Background(), core.Access(core.NewMicroprotocol("m"))); err != nil {
		t.Fatal(err)
	}
	if f, s := w.(spawnStatser).SpawnStats(); f+s != 1 {
		t.Errorf("SpawnStats through the wrapper = %d fast + %d slow, want 1 spawn", f, s)
	}
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	relcomm, netout := uint8(mpBucket("relcomm")), uint8(mpBucket("netout"))
	spans := []span{
		{comp: 1, start: 0, dur: 100, mp: relcomm},
		{comp: 1, start: 10, dur: 20, mp: netout},
		{comp: 1, start: 20, dur: 5, mp: netout}, // nested twice: counted once
		{comp: 1, start: 90, dur: 50, mp: netout},
		{comp: 2, start: 40, dur: 20, mp: netout}, // another computation
	}
	self := selfTimes(spans, 0, 1000)
	if self[relcomm] != 80 {
		t.Errorf("relcomm self = %d, want 100 - 20 nested", self[relcomm])
	}
	if self[netout] != 15+5+50+20 {
		t.Errorf("netout self = %d, want 90", self[netout])
	}
}

func TestWorkloadsPassTheirGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []struct {
		name string
		run  func(traced bool) (*phase, error)
	}{
		{"iso-zipf", func(tr bool) (*phase, error) { return runISO(1, 300*time.Millisecond, tr) }},
		{"kv-closed", func(tr bool) (*phase, error) { return runKVClosed(1, time.Second, false, tr) }},
		{"kv-lossy", func(tr bool) (*phase, error) { return runKVClosed(1, time.Second, true, tr) }},
		{"kv-open", func(tr bool) (*phase, error) { return runKVOpen(1, time.Second, tr) }},
	} {
		for _, traced := range []bool{false, true} {
			p, err := w.run(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(p.violations) > 0 || p.ops == 0 {
				t.Errorf("%s traced=%v: %d ops, violations %v", w.name, traced, p.ops, p.violations)
			}
			if traced && len(p.layer) == 0 {
				t.Errorf("%s: traced phase has no per-layer metrics", w.name)
			}
		}
	}
}
