package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// The seams below time calls into each layer from outside it; none of
// them changes what the layer does.

// spawnStatser is the admission-path counter the cc controllers export.
type spawnStatser interface{ SpawnStats() (fast, slow uint64) }

// ccTimes holds the cc layer's timings; spawn's count is the spawn count.
type ccTimes struct{ spawn, enter *syncHist }

func newCCTimes() *ccTimes { return &ccTimes{spawn: newSyncHist(), enter: newSyncHist()} }

// timedController times Spawn and Enter of the controller it wraps.
type timedController struct {
	core.Controller
	t *ccTimes
}

func (c *timedController) Spawn(ctx context.Context, spec *core.Spec) (core.Token, error) {
	t0 := time.Now()
	tok, err := c.Controller.Spawn(ctx, spec)
	c.t.spawn.record(time.Since(t0))
	return tok, err
}

func (c *timedController) Enter(ctx context.Context, t core.Token, caller, h *core.Handler) error {
	t0 := time.Now()
	err := c.Controller.Enter(ctx, t, caller, h)
	c.t.enter.record(time.Since(t0))
	return err
}

// wrapController returns c timed by t. The result implements exactly the
// optional interfaces c implements — core.Reconfigurer, core.Restorer and
// SpawnStats — so the stack takes the same paths as it would with c
// itself (it type-asserts the first two).
func wrapController(c core.Controller, t *ccTimes) core.Controller {
	w := &timedController{Controller: c, t: t}
	rc, isRc := c.(core.Reconfigurer)
	rs, isRs := c.(core.Restorer)
	st, isSt := c.(spawnStatser)
	switch {
	case isRc && isRs && isSt:
		return struct {
			*timedController
			core.Reconfigurer
			core.Restorer
			spawnStatser
		}{w, rc, rs, st}
	case isRc && isRs:
		return struct {
			*timedController
			core.Reconfigurer
			core.Restorer
		}{w, rc, rs}
	case isRc && isSt:
		return struct {
			*timedController
			core.Reconfigurer
			spawnStatser
		}{w, rc, st}
	case isRs && isSt:
		return struct {
			*timedController
			core.Restorer
			spawnStatser
		}{w, rs, st}
	case isRc:
		return struct {
			*timedController
			core.Reconfigurer
		}{w, rc}
	case isRs:
		return struct {
			*timedController
			core.Restorer
		}{w, rs}
	case isSt:
		return struct {
			*timedController
			spawnStatser
		}{w, st}
	}
	return w
}

// Microprotocol buckets for handler self time: gc's microprotocols.
var mpBuckets = []string{"relcomm", "relcast", "consensus", "abcast", "netout", "fd", "app"}

func mpBucket(name string) int {
	for i, b := range mpBuckets {
		if name == b {
			return i
		}
	}
	return len(mpBuckets) // every other microprotocol
}

// span is one handler execution: its start in nanoseconds since the
// tracer's origin, its duration, its computation and its microprotocol
// bucket. Traced kv runs hold millions, so it is kept to 24 bytes.
type span struct {
	start int64
	dur   uint32
	comp  uint32
	mp    uint8
}

func (s span) end() int64 { return s.start + int64(s.dur) }

// spanTracer is a core.Tracer keeping one stack's handler spans in
// memory; they are aggregated when the run ends.
type spanTracer struct {
	origin  time.Time
	decides atomic.Uint64 // handler executions triggered by Decide

	mu    sync.Mutex
	open  map[uint64]span // by invocation ID
	spans []span
}

func newSpanTracer(origin time.Time) *spanTracer {
	return &spanTracer{origin: origin, open: make(map[uint64]span)}
}

func (t *spanTracer) Spawned(uint64, *core.Spec) {}
func (t *spanTracer) Completed(uint64)           {}
func (t *spanTracer) Aborted(uint64)             {}

func (t *spanTracer) HandlerStart(comp, inv uint64, et *core.EventType, h *core.Handler) {
	now := int64(time.Since(t.origin))
	if et != nil && et.Name() == "Decide" {
		t.decides.Add(1)
	}
	s := span{start: now, comp: uint32(comp), mp: uint8(mpBucket(h.MP().Name()))}
	t.mu.Lock()
	t.open[inv] = s
	t.mu.Unlock()
}

func (t *spanTracer) HandlerEnd(comp, inv uint64, h *core.Handler) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.open[inv]
	if !ok {
		return
	}
	delete(t.open, inv)
	if d := now - s.start; d < math.MaxUint32 {
		s.dur = uint32(d)
	} else {
		s.dur = math.MaxUint32
	}
	t.spans = append(t.spans, s)
}

// Datagram kinds, the outermost byte gc puts on the wire
// (internal/gc/msg.go); the classifier self-test pins them.
const (
	kindData  = 1
	kindAck   = 2
	kindBeat  = 3
	kindOther = 0
)

func classify(p []byte) int {
	if len(p) == 0 || p[0] < kindData || p[0] > kindBeat {
		return kindOther
	}
	return int(p[0])
}

// sendStats counts one node's sends by datagram kind. When timed, it
// also records each Send's duration.
type sendStats struct {
	byKind [4]atomic.Uint64
	bytes  atomic.Uint64
	sendNs atomic.Int64
	times  *syncHist // nil when untraced
}

func (s *sendStats) sends() uint64 {
	var n uint64
	for i := range s.byKind {
		n += s.byKind[i].Load()
	}
	return n
}

// countingNet decorates a transport so that every Send through its
// endpoints is counted (and, when traced, timed).
type countingNet struct {
	transport.Transport
	st *sendStats
}

func (n *countingNet) Endpoint(id transport.NodeID) transport.Endpoint {
	return &countingEndpoint{Endpoint: n.Transport.Endpoint(id), st: n.st}
}

type countingEndpoint struct {
	transport.Endpoint
	st *sendStats
}

func (e *countingEndpoint) Send(to transport.NodeID, payload []byte) {
	e.st.byKind[classify(payload)].Add(1)
	e.st.bytes.Add(uint64(len(payload)))
	if e.st.times == nil {
		e.Endpoint.Send(to, payload)
		return
	}
	t0 := time.Now()
	e.Endpoint.Send(to, payload)
	d := time.Since(t0)
	e.st.sendNs.Add(int64(d))
	e.st.times.record(d)
}
