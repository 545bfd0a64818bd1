package sim

// rank is the canonical (time, key, seq) firing order of Event.Before,
// held inline by the heap's slots and the lanes' frames.
type rank struct {
	at  Time
	key uint64
	seq uint64
}

// before is Event.Before on inline ranks.
func (a *rank) before(b *rank) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// slot is one pending event in the heap array with its rank held
// inline, so a sift compares adjacent 32-byte slots and never
// dereferences a scattered Event.
type slot struct {
	rank
	ev *Event
}

// heap4 is the engine's pending-event set: an implicit 4-ary heap over
// the canonical (time, key, seq) rank, popping in exactly Event.Before
// order. Event.index tracks each event's slot for O(log n) removal.
//
// A pop defers its sift: it vacates the root (hole) and the next push
// drops the new event there and sifts it down once — the hold operation
// nearly every fired event performs — instead of a pop sift followed by
// a push sift. While the hole is open the root slot holds at = -1, below
// every real time, so a sift toward the root stops beneath it unaided.
type heap4 struct {
	q    []slot
	hole bool // q[0] is vacant, left by a pop not yet followed by a push
}

// len returns the number of queued events.
func (h *heap4) len() int {
	if h.hole {
		return len(h.q) - 1
	}
	return len(h.q)
}

// push inserts a scheduled event.
func (h *heap4) push(ev *Event) {
	s := slot{rank{ev.at, ev.key, ev.seq}, ev}
	if h.hole {
		h.hole = false
		h.siftDown(0, s)
		return
	}
	h.q = append(h.q, s)
	h.siftUp(len(h.q)-1, s)
}

// settle closes an open hole by sifting the last slot down from the
// root, so q[0] is the minimum again.
func (h *heap4) settle() {
	h.hole = false
	n := len(h.q) - 1
	last := h.q[n]
	h.q[n].ev = nil
	h.q = h.q[:n]
	if n > 0 {
		h.siftDown(0, last)
	}
}

// popThrough removes and returns the earliest event if it fires at or
// before limit, or returns nil.
func (h *heap4) popThrough(limit Time) *Event {
	if h.hole {
		h.settle()
	}
	if len(h.q) == 0 || h.q[0].at > limit {
		return nil
	}
	ev := h.q[0].ev
	ev.index = -1
	h.q[0] = slot{rank: rank{at: -1}}
	h.hole = true
	return ev
}

// min returns the earliest event's slot without removing it, or nil.
func (h *heap4) min() *slot {
	if h.hole {
		h.settle()
	}
	if len(h.q) == 0 {
		return nil
	}
	return &h.q[0]
}

// remove extracts a queued event from the middle of the heap. An open
// hole stays open: the slot that replaces ev cannot rise past the
// vacant root.
func (h *heap4) remove(ev *Event) {
	i := ev.index
	ev.index = -1
	n := len(h.q) - 1
	last := h.q[n]
	h.q[n].ev = nil
	h.q = h.q[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(&h.q[(i-1)>>2].rank) {
		h.siftUp(i, last)
	} else {
		h.siftDown(i, last)
	}
}

// siftUp places s at slot i or the nearest ancestor slot that keeps
// heap order, moving the ancestors it passes down one level.
func (h *heap4) siftUp(i int, s slot) {
	q := h.q
	for i > 0 {
		parent := (i - 1) >> 2
		if !s.before(&q[parent].rank) {
			break
		}
		q[i] = q[parent]
		q[i].ev.index = i
		i = parent
	}
	q[i] = s
	s.ev.index = i
}

// siftDown places s at slot i or the nearest descendant slot that keeps
// heap order, moving the smallest child of each level it passes up.
func (h *heap4) siftDown(i int, s slot) {
	q := h.q
	n := len(q)
	for {
		c := i<<2 + 1
		var m int
		if c+4 <= n {
			m = c + minOf4((*[4]slot)(q[c:c+4]))
		} else if c < n {
			m = c
			for j := c + 1; j < n; j++ {
				if q[j].before(&q[m].rank) {
					m = j
				}
			}
		} else {
			break
		}
		if !q[m].before(&s.rank) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = s
	s.ev.index = i
}

// minOf4 returns the index of the earliest of four sibling slots. Which
// child of a heap level is smallest is a coin flip to the branch
// predictor, so the common case — four distinct times — is decided by
// arithmetic alone: times are non-negative, so a-b cannot overflow and
// (a-b)>>63 is all ones exactly when a < b. Only when another sibling
// shares the minimum time does the exact (time, key, seq) rank decide.
func minOf4(g *[4]slot) int {
	a0, a1, a2, a3 := int64(g[0].at), int64(g[1].at), int64(g[2].at), int64(g[3].at)
	lt01 := (a1 - a0) >> 63 // a1 < a0
	lo01 := a0 + (a1-a0)&lt01
	lt23 := (a3 - a2) >> 63 // a3 < a2
	lo23 := a2 + (a3-a2)&lt23
	i01, i23 := int(lt01&1), 2+int(lt23&1)
	lt := (lo23 - lo01) >> 63 // min(a2,a3) < min(a0,a1)
	lo := lo01 + (lo23-lo01)&lt
	m := i01 + (i23-i01)&int(lt)
	// x >= 0 is zero exactly when (x-1)>>63 is -1: count the siblings
	// sitting at the minimum time.
	if (a0-lo-1)>>63+(a1-lo-1)>>63+(a2-lo-1)>>63+(a3-lo-1)>>63 != -1 {
		m = 0
		for j := 1; j < 4; j++ {
			if g[j].before(&g[m].rank) {
				m = j
			}
		}
	}
	return m
}
