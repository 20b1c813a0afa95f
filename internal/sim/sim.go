// Package sim is a minimal deterministic discrete-event simulation engine.
//
// Events are scheduled at absolute virtual times; ties are broken by
// scheduling order, so a run is a pure function of its inputs. The simulated
// runtime (internal/simrt) and the simulated network (internal/simnet) both
// drive their state machines from this engine.
//
// # Event representation
//
// The engine queues one shape of event, a typed (handler, kind) record:
//
//	scheduled by          dispatched as
//	-------------------   -------------------------------
//	AtEvent / AfterEvent  h.HandleEvent(kind, at)
//
// The caller passes a Handler (in simrt, the per-core and per-assembly
// state machines; in simnet, the message in flight) plus a small EventKind
// discriminator. Scheduling against a long-lived handler allocates nothing:
// the record is stored by value in the engine's arena, whose capacity is
// reused across the whole run.
//
// Event kinds are opaque to the engine: each Handler implementation defines
// its own kind space (see internal/simrt for the runtime's kind table).
//
// # Queue discipline
//
// Events dispatch in strict (at, seq) order, where seq is the global
// scheduling sequence number: events at equal times run in the order they
// were scheduled — the determinism contract the scenario engine's
// byte-identical fingerprints rely on. Because (at, seq) is a strict total
// order, dispatch order is independent of how the pending set is stored.
//
// Storage is tiered purely for speed; both tiers hold pointer-free
// 16-byte (at, seq|slot) keys whose payload (handler and kind) lives in
// a freelist-managed arena, and dispatch always takes the minimum of the
// two tiers' fronts:
//
//   - near: events within nearWindow of the clock (same-time completion
//     cascades, dispatch follow-ups, steal retries, idle polls — the bulk
//     of the traffic) — a sorted slice with headroom below its front: a key
//     at or above the back appends, a key below the front (the dominant
//     dispatch→step ping-pong) is an O(1) prepend into the gap that pops
//     keep regenerating, and anything else binary-searches its place and
//     shifts the keys above it;
//   - keys: everything further out — an index-based 4-ary min-heap whose
//     sibling groups fit one cache line.
//
// All slices reuse their capacity, so steady-state scheduling and dispatch
// perform no allocation and no GC write barriers.
package sim

import (
	"fmt"
	"math"
)

// EventKind discriminates typed events for a Handler. Kind values are
// defined by each Handler implementation; the engine never interprets them.
type EventKind uint8

// Handler receives events. Implementations are usually long-lived objects
// (core state machines, assemblies), so scheduling an event against one
// performs no allocation.
type Handler interface {
	// HandleEvent runs the event. kind is the value passed to AtEvent and
	// at is the event's virtual time (equal to Engine.Now during the
	// call).
	HandleEvent(kind EventKind, at float64)
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use: everything happens on the caller's goroutine inside Run.
type Engine struct {
	now  float64
	seq  uint64
	keys []eventKey // 4-ary min-heap of pointer-free sort keys
	recs []eventRec // payload arena, indexed by eventKey.slot
	free []int32    // recycled arena slots
	// near is the sorted near-term tier: keys within nearWindow of the
	// clock (same-time cascades, dispatch follow-ups, steal retries, idle
	// polls — the bulk of the traffic) are insertion-sorted here, giving
	// O(1) pops and short memmoves instead of heap sifts. Only far-future
	// keys (task finish times) take the heap. The live window is
	// near[nearHead:]; the consumed prefix below nearHead is headroom that
	// front inserts (the dispatch→step follow-up that becomes the very next
	// event) slide into in O(1). Dispatch always takes the (at, seq) minimum
	// of the two tiers, so the routing never affects order.
	near     []eventKey
	nearHead int
	stopped  bool
	// Processed counts events executed, for diagnostics and perf tests.
	Processed uint64
}

// eventKey is one heap entry: the (at, seq) dispatch order plus the arena
// slot of the payload. It is deliberately pointer-free — heap sifts are
// plain memory moves with no GC write barriers — and 16 bytes, so a 4-ary
// sibling group spans a single cache line.
//
// seq and slot share one word: the upper 44 bits hold the scheduling
// sequence number (1.7e13 events before overflow, far beyond any run) and
// the lower 20 bits the arena slot (2^20 pending events; the engine panics
// if a simulation ever exceeds that). Comparing the packed word compares
// seq first, and equal-at events always differ in seq, so the slot bits
// never influence dispatch order.
type eventKey struct {
	at      float64
	seqSlot uint64
}

// slotBits is the width of the arena-slot field in eventKey.seqSlot.
const slotBits = 20

// nearWindow is the horizon of the sorted near-term tier: events scheduled
// within this many seconds of the clock go to the sorted ring, later ones
// to the heap. The value covers the runtime's dispatch/steal/poll delays
// (sub-millisecond) while keeping task completions out. Routing is a pure
// performance decision — dispatch order is decided by key comparison, so
// any value is correct.
const nearWindow = 1e-3

// nearCap bounds the sorted tier: beyond this many pending entries the
// memmove inserts stop paying for themselves, and further near-term keys
// overflow to the heap (again only a routing choice).
const nearCap = 768

// eventRec is one arena payload: a (handler, kind) pair. Dispatch zeroes the
// record before reuse so the arena never retains dead handlers.
type eventRec struct {
	kind EventKind
	h    Handler
}

// New returns an engine at virtual time 0.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// checkTime validates a scheduling time. Scheduling in the past would
// violate causality and hide bugs.
func (e *Engine) checkTime(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN")
	}
}

// AtEvent schedules an event for h at absolute virtual time t; scheduling in
// the past (t < Now) panics. It is allocation-free: the payload is stored by
// value in the engine's reusable arena and the heap holds only scalar keys.
// Every call is one delivery, even when an identical (t, h, kind) event is
// already pending.
func (e *Engine) AtEvent(t float64, h Handler, kind EventKind) {
	e.checkTime(t)
	e.push(eventRec{kind: kind, h: h}, t)
}

// AfterEvent schedules an event for h to run d seconds from now.
func (e *Engine) AfterEvent(d float64, h Handler, kind EventKind) {
	e.AtEvent(e.now+d, h, kind)
}

// Run executes events in (at, seq) order until the queue is empty or Stop
// is called, taking each event from whichever of the two tiers' fronts is
// smaller. It returns the final virtual time.
func (e *Engine) Run() float64 {
	e.stopped = false
	for !e.stopped {
		var at float64
		var rec eventRec
		if e.nearHead < len(e.near) && (len(e.keys) == 0 || e.near[e.nearHead].less(&e.keys[0])) {
			k := e.near[e.nearHead]
			e.nearHead++
			if e.nearHead == len(e.near) {
				e.near = e.near[:0]
				e.nearHead = 0
			}
			at, rec = k.at, e.take(k.slot())
		} else if len(e.keys) > 0 {
			at = e.keys[0].at // read before pop moves another key to the root
			rec = e.pop()
		} else {
			break
		}
		e.now = at
		e.Processed++
		rec.h.HandleEvent(rec.kind, at)
	}
	return e.now
}

// Stop makes Run return after the current event completes. Pending events
// remain queued; Run may be called again to continue.
func (e *Engine) Stop() { e.stopped = true }

// Reset returns the engine to the state of a freshly constructed one —
// virtual time 0, no pending events, zero counters — while keeping the
// tiers' allocated capacity. Callers that sweep many independent runs
// (scenario cell workers) Reset between runs so steady-state scheduling
// stays allocation-free across the whole sweep, with semantics identical
// to using a fresh engine per run.
func (e *Engine) Reset() {
	// Drop payloads explicitly: abandoned events (a run stopped early)
	// would otherwise keep their handlers alive in the arena.
	for i := range e.recs {
		e.recs[i] = eventRec{}
	}
	e.now = 0
	e.seq = 0
	e.keys = e.keys[:0]
	e.recs = e.recs[:0]
	e.free = e.free[:0]
	e.near = e.near[:0]
	e.nearHead = 0
	e.stopped = false
	e.Processed = 0
}

// less orders the heap by (at, seq). seq values are unique, so this is a
// strict total order and the pop sequence is independent of heap shape.
func (a *eventKey) less(b *eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seqSlot < b.seqSlot
}

// slot is the arena index of the key's payload.
func (a *eventKey) slot() int32 { return int32(a.seqSlot & (1<<slotBits - 1)) }

// nearInsert places a key into the sorted near-term tier, whose live window
// is near[nearHead:]. The two dominant arrival patterns are O(1): a key at
// or above the back (completions, polls) appends, a key below the current
// front (the dispatch follow-up that becomes the very next event) slides
// into the headroom that pops regenerate one slot per dispatch. Everything
// else binary-searches for its position and shifts the keys above it up one
// slot.
func (e *Engine) nearInsert(k eventKey) {
	if e.nearHead >= 3*nearCap {
		// Recycle the consumed prefix before it forces the slice to grow,
		// keeping nearCap slots of front headroom. The window holds at most
		// nearCap live keys, so the slice stabilizes at ~4×nearCap entries.
		live := copy(e.near[nearCap:], e.near[e.nearHead:])
		e.near = e.near[:nearCap+live]
		e.nearHead = nearCap
	}
	a := e.near
	n := len(a)
	if n == e.nearHead || !k.less(&a[n-1]) {
		e.near = append(a, k)
		return
	}
	if e.nearHead > 0 && k.less(&a[e.nearHead]) {
		e.nearHead--
		a[e.nearHead] = k
		return
	}
	lo, hi := e.nearHead, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k.less(&a[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	a = append(a, k)
	copy(a[lo+1:], a[lo:n])
	a[lo] = k
	e.near = a
}

// take reads and recycles one arena slot.
func (e *Engine) take(slot int32) eventRec {
	rec := e.recs[slot]
	e.recs[slot] = eventRec{}
	e.free = append(e.free, slot)
	return rec
}

// push stores the payload in the arena and enqueues its key: near-term keys
// go to the sorted tier, everything else sifts up the 4-ary heap.
func (e *Engine) push(rec eventRec, at float64) {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.recs[slot] = rec
	} else {
		slot = int32(len(e.recs))
		if slot >= 1<<slotBits {
			panic("sim: more than 2^20 concurrently pending events")
		}
		e.recs = append(e.recs, rec)
	}
	e.seq++
	key := eventKey{at: at, seqSlot: e.seq<<slotBits | uint64(slot)}
	if at-e.now < nearWindow && len(e.near)-e.nearHead < nearCap {
		e.nearInsert(key)
		return
	}
	h := append(e.keys, key)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h[i].less(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.keys = h
}

// pop removes the minimum key and returns its payload, recycling the arena
// slot and zeroing it so the engine does not retain the handler.
//
// The sift uses the bottom-up strategy: the root hole walks to the leaf
// level along the min-child path (one move and three comparisons per
// level), then the displaced last element bubbles up from the hole —
// usually zero levels, since the last element of a heap is almost always
// leaf-sized. The classic top-down sift pays an extra comparison against
// the displaced element at every level instead.
func (e *Engine) pop() eventRec {
	h := e.keys
	slot := h[0].slot()
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := i*4 + 1
			if c >= n {
				break
			}
			m := c
			if c+4 <= n {
				// Full sibling group, unrolled: one 64-byte cache line.
				if h[c+1].less(&h[m]) {
					m = c + 1
				}
				if h[c+2].less(&h[m]) {
					m = c + 2
				}
				if h[c+3].less(&h[m]) {
					m = c + 3
				}
			} else {
				for j := c + 1; j < n; j++ {
					if h[j].less(&h[m]) {
						m = j
					}
				}
			}
			h[i] = h[m]
			i = m
		}
		for i > 0 {
			p := (i - 1) / 4
			if !last.less(&h[p]) {
				break
			}
			h[i] = h[p]
			i = p
		}
		h[i] = last
	}
	e.keys = h
	return e.take(slot)
}
