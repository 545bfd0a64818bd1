package sim

// Event is the scheduler's internal node for one pending callback.
// Events are pooled and reused after they fire; external code holds
// Timer handles (which carry a generation counter) rather than bare
// *Event pointers, so a handle to a fired-and-reused event can never
// cancel its unrelated successor.
type Event struct {
	at    Time
	key   uint64 // canonical rank class; 0 for ordinary events
	seq   uint64
	gen   uint64
	fn    func()
	index int // heap slot; -2-i at slot i of the far set; -1 when not queued

	// sink and arg replace fn on a delivery that fit no lane (see
	// Engine.Deliver); sink is nil on every other event.
	sink Sink
	arg  any
}

// At reports when the event is (or was) scheduled to fire.
func (e *Event) At() Time { return e.at }

// Before reports whether e fires before o: the canonical
// (time, key, seq) rank. Simultaneous events order first by their
// structural key — a class derived from the topology and traffic specs
// (wire deliveries carry their port's build-time ID, traffic arrivals
// their generator's rank; ordinary events carry 0) — and only then by
// the scheduling sequence (first scheduled, first fired). The engine's
// heap pops in exactly this order.
func (e *Event) Before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.key != o.key {
		return e.key < o.key
	}
	return e.seq < o.seq
}

// Canonical key bands. Keys are structural: derivable from the
// experiment spec alone, never from execution history, so the order of
// same-picosecond events — and with it every result digest — depends on
// the spec and nothing else.
//
//   - 0: ordinary events (host timers, tx-complete, cc trampolines) —
//     tie-broken by scheduling order, as before;
//   - [1, KeyArrivalBase): wire-delivery events, keyed by the directed
//     port's build-time structural ID (topology.Builder assigns them in
//     Link order);
//   - [KeyArrivalBase, ...): traffic-arrival events, keyed by the
//     generator's index in the scenario (ArrivalKey).
const KeyArrivalBase uint64 = 1 << 32

// ArrivalKey returns the canonical key for traffic-arrival events of
// scenario generator i.
func ArrivalKey(i int) uint64 { return KeyArrivalBase + uint64(i) }

// Timer is a cancellable handle to a scheduled event. The zero Timer
// is inert: cancelling it is a no-op. Handles are values; they embed
// the event's generation at scheduling time, so a stale handle (the
// event fired or was cancelled, and the pooled Event was reused) can
// never touch the reused event — the ABA hazard of the freelist.
type Timer struct {
	ev  *Event
	gen uint64
}

// Armed reports whether the timer still refers to a pending event.
func (t Timer) Armed() bool { return t.ev != nil && t.ev.gen == t.gen }

// When returns the scheduled fire time of a still-armed timer, or 0.
func (t Timer) When() Time {
	if !t.Armed() {
		return 0
	}
	return t.ev.at
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; one engine's world runs on one goroutine, which
// is what makes runs deterministic. (Independent engines may run on
// concurrent goroutines — the campaign runner does.)
//
// A pending event waits on a delivery lane (see Deliver), in the heap if
// due before the boundary farB, or else in the far set: an unsorted
// slice with O(1) arm and cancel, so a retransmission backstop cancelled
// microseconds after it is armed never costs a sift. Where an event
// waited never shows in the firing order (see next).
type Engine struct {
	now     Time
	seq     uint64
	q       heap4 // pending events that may be cancelled or fire at irregular times
	horizon Time  // farB-1 while far events wait, else maxTime; next reads it per event
	stopped bool
	pool    []*Event      // freelist for fired events
	events  Chunks[Event] // where the freelist's misses are carved from
	fired   uint64
	high    int // most events ever pending at once

	// Deliveries in flight (see Deliver). Lanes are claimed from index 0
	// and never released; tails[i] is the time of the last frame pushed
	// onto lane i — at or before the clock once the lane has drained, so
	// an empty lane fits every delivery — and cur caches minLane's answer
	// (-1: rescan).
	lanes     [numLanes]lane
	tails     [numLanes]Time
	used      int
	cur       int
	inFlight  int
	delivered uint64
	offLane   uint64

	far  []*Event
	farB Time // heap events are due before it, far events at or after it
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{farB: farSpan, horizon: maxTime}
	noteEngine(e)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled, not-yet-fired events,
// deliveries in flight included.
func (e *Engine) Pending() int { return e.q.len() + len(e.far) + e.inFlight }

// PendingHighWater returns the largest Pending has been. Every frame in
// flight on a wire counts, so on a busy fabric this is mostly the lanes'
// population; the heap's own depth is what is left of it.
func (e *Engine) PendingHighWater() int { return e.high }

// Delivered returns how many deliveries Deliver has scheduled.
func (e *Engine) Delivered() uint64 { return e.delivered }

// OffLane returns how many deliveries fit no lane and went through the
// heap.
func (e *Engine) OffLane() uint64 { return e.offLane }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn to run at absolute time t with the ordinary rank
// (key 0). Scheduling in the past (t < Now) panics: that is always a
// logic error in a discrete-event model.
func (e *Engine) At(t Time, fn func()) Timer { return e.AtKey(t, 0, fn) }

// AtKey schedules fn to run at absolute time t under canonical key —
// the structural tie-break class for simultaneous events (see
// Event.Before). Wire deliveries and traffic arrivals use it so their
// order at a shared timestamp is derivable from the topology alone.
func (e *Engine) AtKey(t Time, key uint64, fn func()) Timer {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	ev := e.newEvent(t, key, e.seq)
	e.seq++
	ev.fn = fn
	if t < e.farB {
		e.q.push(ev)
	} else {
		e.farPush(ev)
	}
	e.notePending()
	return Timer{ev: ev, gen: ev.gen}
}

// farSpan is how far past the earliest event migrate moves farB: ≈ 268
// µs, beyond every periodic congestion-control tick (DCQCN's 55 µs, the
// 50 µs CNP interval) and short of the 1 ms retransmission backstop.
const farSpan Time = 1 << 28

// farPush puts an event due at or after farB into the far set; every
// other event that is not a lane's goes into the heap. The first takes
// room for 128, above the 98 a campaign engine's far set peaks at.
func (e *Engine) farPush(ev *Event) {
	if e.far == nil {
		e.far = make([]*Event, 0, 128)
	}
	ev.index = -2 - len(e.far)
	e.far = append(e.far, ev)
	e.horizon = e.farB - 1
}

// migrate moves farB to farSpan past the earliest of c (the candidate of
// next, maxTime for none) and the far events — to maxTime, taking them
// all, if that overflows — and the far events before it into the heap.
func (e *Engine) migrate(c Time) {
	m := c
	for _, ev := range e.far {
		m = min(m, ev.at)
	}
	e.farB = maxTime
	if m <= maxTime-farSpan {
		e.farB = m + farSpan
	}
	kept := e.far[:0]
	for _, ev := range e.far {
		if ev.at < e.farB || e.farB == maxTime {
			e.q.push(ev)
		} else {
			kept = append(kept, ev)
			ev.index = -1 - len(kept)
		}
	}
	clear(e.far[len(kept):])
	e.far, e.horizon = kept, maxTime
	if len(kept) > 0 {
		e.horizon = e.farB - 1
	}
}

// eventChunk bounds the chunks new events are carved from: 256 events
// of 80 bytes.
const eventChunk = 256

// newEvent takes an event off the free list and ranks it.
func (e *Engine) newEvent(t Time, key, seq uint64) *Event {
	var ev *Event
	if n := len(e.pool); n > 0 {
		ev = e.pool[n-1]
		e.pool = e.pool[:n-1]
	} else {
		// A miss warms the free list once, a chunk at a time; the
		// steady state reuses recycled events
		// (TestEngineSteadyStateAllocs).
		ev = e.events.Take(eventChunk)
		ev.index = -1
	}
	ev.at, ev.key, ev.seq = t, key, seq
	return ev
}

// notePending keeps the high-water mark after Pending has grown.
func (e *Engine) notePending() {
	if p := e.Pending(); p > e.high {
		e.high = p
	}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Timer {
	return e.AtKey(e.now+d, 0, fn)
}

// AfterKey schedules fn to run d after the current time under canonical
// key (see AtKey).
func (e *Engine) AfterKey(d Time, key uint64, fn func()) Timer {
	return e.AtKey(e.now+d, key, fn)
}

// Cancel removes a scheduled event. Cancelling a zero Timer, an event
// that already fired, or one already cancelled is a no-op — the
// generation check makes this safe even after the pooled Event has been
// reused for an unrelated callback.
func (e *Engine) Cancel(t Timer) {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.fn == nil {
		return
	}
	ev.gen++ // invalidate every outstanding handle
	if ev.index >= 0 {
		e.q.remove(ev)
	} else {
		e.farRemove(ev)
	}
	e.recycle(ev)
}

// farRemove swap-removes an event from the far set.
func (e *Engine) farRemove(ev *Event) {
	i, n := -2-ev.index, len(e.far)-1
	last := e.far[n]
	e.far[i], last.index = last, ev.index
	e.far[n], e.far, ev.index = nil, e.far[:n], -1
	if n == 0 {
		e.horizon = maxTime
	}
}

func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	e.pool = append(e.pool, ev)
}

// PeekTime returns the fire time of the earliest pending event. It
// reads the far set only when the lanes and heap have nothing due
// before farB, and moves nothing.
func (e *Engine) PeekTime() (Time, bool) {
	if e.Pending() == 0 {
		return 0, false
	}
	at := maxTime
	if root := e.q.min(); root != nil {
		at = root.at
	}
	if i := e.minLane(); i >= 0 {
		at = min(at, e.lanes[i].front().at)
	}
	if at > e.horizon {
		for _, ev := range e.far {
			at = min(at, ev.at)
		}
	}
	return at, true
}

// fire executes a heap event that has already been popped.
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	fn, sink, arg := ev.fn, ev.sink, ev.arg
	ev.sink, ev.arg = nil, nil
	ev.gen++ // invalidate handles before fn can reschedule
	e.recycle(ev)
	e.fired++
	if sink != nil {
		sink.Arrive(arg)
		return
	}
	fn()
}

// maxTime is the latest representable instant.
const maxTime = Time(1<<63 - 1)

// Step fires the earliest pending event and returns true, or returns
// false if the queue is empty.
func (e *Engine) Step() bool { return e.next(maxTime) }

// Run fires events until the queue empties or Stop is called.
func (e *Engine) Run() { e.runThrough(maxTime) }

// runThrough fires events with timestamps <= last until none is left or
// Stop is called.
func (e *Engine) runThrough(last Time) {
	e.stopped = false
	for !e.stopped && e.next(last) {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline remain
// queued.
func (e *Engine) RunUntil(deadline Time) {
	e.runThrough(deadline)
	if e.now < deadline {
		e.now = deadline
	}
}

// Stop makes the innermost Run/RunUntil return after the current event
// completes. Callable from inside event callbacks.
func (e *Engine) Stop() { e.stopped = true }
