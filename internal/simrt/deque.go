package simrt

// deque is the Work-Stealing Queue of one simulated core: the owner pushes
// and pops at the bottom (LIFO, for locality), thieves remove the oldest
// stealable entry from the top, like a Blumofe–Leiserson deque. A runtime
// runs on one goroutine (the event engine's), so owner and thieves are the
// same thread of control and the deque needs no synchronization.
//
// Entries are packed trefs (task index << 1 | high bit, see soa.go), so
// the ring is pointer-free — the GC never scans queued work — and the
// priority-scanning paths test a bit instead of chasing a task pointer.
//
// Storage is the shared power-of-two ring (see ring.go), plus a count of
// low-priority entries that makes the priority-scanning paths O(1) in the
// common no-high-queued state and backs the runtime's stealable-work
// bitmaps. The common operations are O(1) index moves: PushBottom appends
// at the back, plain PopBottom removes the back, StealOldest usually
// removes the front. Removals from the middle (the priority-scanning
// paths) shift the shorter side of the ring instead of copying the whole
// tail, so they cost O(min(i, n-i)) and the FIFO/LIFO order of the
// remaining entries is preserved exactly.
type deque struct {
	ring[int32]
	low int // queued tasks with the high bit clear
}

// LowLen returns the number of queued low-priority tasks — the entries a
// thief may take under the paper's no-priority-steal rule. The runtime
// mirrors Len/LowLen into its stealable-work bitmaps.
func (d *deque) LowLen() int { return d.low }

// clear empties the deque, keeping its storage. Trefs are pointer-free, so
// stale ring slots retain nothing.
func (d *deque) clear() {
	d.head = 0
	d.n = 0
	d.low = 0
}

// removeAt removes and returns the tref at logical index i, shifting the
// shorter side of the window toward the gap.
func (d *deque) removeAt(i int) int32 {
	t := d.at(i)
	if t&1 == 0 {
		d.low--
	}
	if i < d.n-1-i {
		// Closer to the front: shift [0, i) up by one and advance head.
		for k := i; k > 0; k-- {
			d.set(k, d.at(k-1))
		}
		d.head = (d.head + 1) & (len(d.buf) - 1)
	} else {
		// Closer to the back: shift (i, n) down by one.
		for k := i; k < d.n-1; k++ {
			d.set(k, d.at(k+1))
		}
	}
	d.n--
	return t
}

// PushBottom appends a tref at the owner's end.
func (d *deque) PushBottom(t int32) {
	d.pushBack(t)
	if t&1 == 0 {
		d.low++
	}
}

// PopBottom removes and returns the tref the owner should run next: with
// preferHigh set, the most recently pushed high-priority task if any
// (criticality-aware policies run critical tasks first); otherwise plain
// LIFO, which is what the priority-oblivious random work stealing family
// does. The priority scan is skipped entirely when the counters show no
// high-priority entry is queued — the overwhelmingly common state.
func (d *deque) PopBottom(preferHigh bool) (int32, bool) {
	if d.n == 0 {
		return 0, false
	}
	idx := d.n - 1
	if preferHigh && d.low < d.n && d.at(idx)&1 == 0 {
		for i := d.n - 2; i >= 0; i-- {
			if d.at(i)&1 != 0 {
				idx = i
				break
			}
		}
	}
	return d.removeAt(idx), true
}

// PopHigh removes and returns the most recently pushed high-priority task,
// if any. Criticality-aware workers dispatch these before anything else;
// the counters make the empty case O(1), so checking on every worker step
// is free.
func (d *deque) PopHigh() (int32, bool) {
	if d.low == d.n {
		return 0, false
	}
	for i := d.n - 1; i >= 0; i-- {
		if d.at(i)&1 != 0 {
			return d.removeAt(i), true
		}
	}
	return 0, false
}

// HasStealable reports whether the deque holds a task a thief may take.
// O(1): the counters decide both priority regimes.
func (d *deque) HasStealable(allowHigh bool) bool {
	if allowHigh {
		return d.n > 0
	}
	return d.low > 0
}

// StealOldest removes and returns the oldest stealable task. The common
// case — the oldest entry is stealable — is an O(1) head advance.
func (d *deque) StealOldest(allowHigh bool) (int32, bool) {
	if !d.HasStealable(allowHigh) {
		return 0, false
	}
	for i := 0; i < d.n; i++ {
		if allowHigh || d.at(i)&1 == 0 {
			return d.removeAt(i), true
		}
	}
	return 0, false
}
