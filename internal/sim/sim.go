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
// Storage is tiered purely for speed; every tier holds pointer-free
// 16-byte (at, seq|slot) keys whose payload (handler and kind) lives in
// a freelist-managed arena, and dispatch always takes the minimum of the
// tiers' fronts:
//
//   - nowBuf: events scheduled at exactly the current time (completion
//     cascades, rendezvous deliveries) — FIFO, O(1) both ends. When the
//     other tiers hold nothing at the current time, runUntil drains an
//     entire same-time generation of this buffer back to back without
//     re-consulting the other tiers;
//   - near: events within nearWindow of the clock (dispatch follow-ups,
//     steal retries, idle polls — the bulk of the traffic) — a sorted
//     slice with headroom at both ends: binary-search inserts memmove
//     whichever side of the insertion point is shorter, and the dominant
//     dispatch→step ping-pong (a key landing at the very front) is an O(1)
//     prepend into the gap that pops keep regenerating;
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
	// nowBuf holds keys scheduled at exactly the current virtual time —
	// completion cascades (a finishing assembly releasing its members,
	// rendezvous deliveries) schedule at t == Now constantly. Entries are
	// appended in seq order, so the buffer is FIFO-sorted by (at, seq)
	// and such events bypass the heap entirely; nowHead is the dispatch
	// cursor. The buffer necessarily drains before the clock can advance,
	// because its entries compare below every later-time heap key.
	nowBuf  []eventKey
	nowHead int
	// near is the sorted near-term tier: keys within nearWindow of the
	// clock (dispatch follow-ups, steal retries, idle polls — the bulk of
	// the traffic) are insertion-sorted here, giving O(1) pops and short
	// memmoves instead of heap sifts. Only far-future keys (task finish
	// times) take the heap. The live window is near[nearHead:]; the
	// consumed prefix below nearHead is reusable headroom, so an insert
	// shifts whichever side of the insertion point is shorter — front
	// inserts (the dispatch→step follow-up that becomes the very next
	// event) slide into the headroom pops keep regenerating, in O(1),
	// instead of moving the whole window. Dispatch always takes the
	// (at, seq) minimum of the three tiers, so the routing never affects
	// order.
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

// Run executes events in order until the queue is empty or Stop is called.
// It returns the final virtual time.
func (e *Engine) Run() float64 { return e.runUntil(math.Inf(1)) }

// runUntil executes events with time ≤ limit, advancing the clock, until
// the queue drains, the limit is passed, or Stop is called. The clock never
// exceeds limit.
func (e *Engine) runUntil(limit float64) float64 {
	e.stopped = false
	for !e.stopped {
		// The next event is the (at, seq) minimum of the three tiers'
		// fronts: the same-time FIFO, the sorted near-term ring, and the
		// far-future heap.
		src := srcNone
		var front, nearFront, heapFront *eventKey
		if e.nowHead < len(e.nowBuf) {
			src, front = srcNow, &e.nowBuf[e.nowHead]
		}
		if e.nearHead < len(e.near) {
			nearFront = &e.near[e.nearHead]
			if src == srcNone || nearFront.less(front) {
				src, front = srcNear, nearFront
			}
		}
		if len(e.keys) > 0 {
			heapFront = &e.keys[0]
			if src == srcNone || heapFront.less(front) {
				src, front = srcHeap, heapFront
			}
		}
		if src == srcNone {
			return e.now
		}
		at := front.at
		if at > limit {
			e.now = limit
			return e.now
		}
		var rec eventRec
		switch src {
		case srcNow:
			// Batch drain: while the other tiers' fronts are strictly
			// later than the buffer's time, this entire same-time FIFO
			// generation — including entries handlers append while it
			// runs — dispatches back to back without re-consulting them.
			// Handlers can only schedule at ≥ now, and same-time pushes
			// always join this buffer while it is non-empty, so no key at
			// this time can appear in the other tiers mid-drain.
			if (nearFront == nil || nearFront.at > at) && (heapFront == nil || heapFront.at > at) {
				e.now = at
				for e.nowHead < len(e.nowBuf) {
					k := e.nowBuf[e.nowHead]
					e.nowHead++
					if e.nowHead == len(e.nowBuf) {
						e.nowBuf = e.nowBuf[:0]
						e.nowHead = 0
					}
					r := e.take(int32(k.seqSlot & (1<<slotBits - 1)))
					e.Processed++
					r.h.HandleEvent(r.kind, at)
					if e.stopped {
						break
					}
				}
				continue
			}
			slot := int32(front.seqSlot & (1<<slotBits - 1))
			e.nowHead++
			if e.nowHead == len(e.nowBuf) {
				e.nowBuf = e.nowBuf[:0]
				e.nowHead = 0
			}
			rec = e.take(slot)
		case srcNear:
			slot := int32(front.seqSlot & (1<<slotBits - 1))
			e.nearHead++
			if e.nearHead == len(e.near) {
				e.near = e.near[:0]
				e.nearHead = 0
			}
			rec = e.take(slot)
		default:
			rec = e.pop()
		}
		e.now = at
		e.Processed++
		rec.h.HandleEvent(rec.kind, at)
	}
	return e.now
}

// Event-source tags for runUntil's three-way front comparison.
const (
	srcNone = iota
	srcNow
	srcNear
	srcHeap
)

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
	e.nowBuf = e.nowBuf[:0]
	e.nowHead = 0
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

// nearInsert places a key into the sorted near-term tier, whose live window
// is near[nearHead:]. The two dominant arrival patterns are O(1): a key at
// or above the back (completions, polls) appends, a key below the current
// front (the dispatch follow-up that becomes the very next event) slides
// into the headroom that pops regenerate one slot per dispatch. Everything
// else binary-searches for its position and memmoves whichever side of the
// window is shorter, so an insert costs O(min(i, n-i)) contiguous moves.
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
	if e.nearHead > 0 && lo-e.nearHead <= n-lo {
		// Front side shorter: shift [nearHead, lo) down into the headroom.
		copy(a[e.nearHead-1:], a[e.nearHead:lo])
		a[lo-1] = k
		e.nearHead--
		return
	}
	// Back side shorter (or no front headroom): shift [lo, n) up one slot.
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

// push stores the payload in the arena and enqueues its key: same-time
// events go to the FIFO buffer, near-term keys go to the sorted ring, everything else sifts up the 4-ary
// heap.
func (e *Engine) push(rec eventRec, at float64) {
	// Same-time events join the FIFO only while the buffer holds a single
	// time value: runUntil with a limit below the clock legally rewinds
	// `now` beneath undispatched buffer entries, and mixing times would
	// break the buffer's sorted-by-(at, seq) property.
	nowEligible := at == e.now && (e.nowHead == len(e.nowBuf) || e.nowBuf[len(e.nowBuf)-1].at == at)
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
	if nowEligible {
		e.nowBuf = append(e.nowBuf, key)
		return
	}
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
	slot := int32(h[0].seqSlot & (1<<slotBits - 1))
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
