package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// eventQueue is the scheduler oracle: a container/heap binary heap of
// *Event ordered by Event.Before. The engine's heap4 must pop, peek and
// remove exactly as it does.
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool { return q[i].Before(q[j]) }

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// simulator is what TestSchedulerEquivalence needs of an engine, so the
// same random program can drive the real Engine and the oracle.
type simulator interface {
	Now() Time
	Pending() int
	PeekTime() (Time, bool)
	schedule(at Time, key uint64, fn func()) (cancel func())
	deliver(at Time, key uint64, fn func())
	RunUntil(deadline Time)
	audit(t *testing.T)
	// boundary is the real engine's farB, which the oracle replays, so
	// both can be driven to the far set's edge.
	boundary() Time
}

// realEngine records what the oracle replays and what the program
// covered.
type realEngine struct {
	*Engine
	bounds *[]Time
	cov    *farCoverage
}

// farCoverage counts the far set's two exits: timers that waited there
// and fired after a migration, and timers cancelled straight from it.
type farCoverage struct{ migrated, cancelled int }

func (e realEngine) schedule(at Time, key uint64, fn func()) func() {
	far := false
	t := e.AtKey(at, key, func() {
		if far {
			e.cov.migrated++
		}
		fn()
	})
	far = t.ev.index <= -2
	return func() {
		if t.Armed() && t.ev.index <= -2 {
			e.cov.cancelled++
		}
		e.Cancel(t)
	}
}

func (e realEngine) boundary() Time {
	*e.bounds = append(*e.bounds, e.farB)
	return e.farB
}

// fnSink runs a delivery's argument as a callback.
type fnSink struct{}

func (fnSink) Arrive(arg any) { arg.(func())() }

func (e realEngine) deliver(at Time, key uint64, fn func()) { e.Deliver(at, key, fnSink{}, fn) }

// audit checks the lanes' structure — frames rank-sorted head to tail,
// tails naming each lane's last frame, a drained lane back at slot 0,
// unclaimed lanes empty, the in-flight count exact and a cached minimum
// lane really the minimum — and the far set's: every heap event due
// before farB, every far event at or after it with its back-pointer
// right, the horizon farB-1 exactly while the far set holds events, and
// Pending the sum of the three places.
func (e realEngine) audit(t *testing.T) {
	t.Helper()
	n := 0
	for i := range e.lanes {
		l := &e.lanes[i]
		n += l.n
		if l.n == 0 {
			if l.head != 0 {
				t.Fatalf("drained lane %d rests at slot %d, want 0", i, l.head)
			}
			continue
		}
		if i >= e.used {
			t.Fatalf("lane %d holds %d frames but only %d lanes are claimed", i, l.n, e.used)
		}
		mask := len(l.buf) - 1
		for k := 1; k < l.n; k++ {
			a, b := &l.buf[(l.head+k-1)&mask], &l.buf[(l.head+k)&mask]
			if !a.before(&b.rank) {
				t.Fatalf("lane %d: frame %d (%v,%d,%d) does not rank before frame %d (%v,%d,%d)",
					i, k-1, a.at, a.key, a.seq, k, b.at, b.key, b.seq)
			}
		}
		if last := l.buf[(l.head+l.n-1)&mask].at; last != e.tails[i] {
			t.Fatalf("lane %d: tail time %v, last frame at %v", i, e.tails[i], last)
		}
		if c := e.cur; c >= 0 && c != i && l.front().before(&e.lanes[c].front().rank) {
			t.Fatalf("lane %d's head ranks before the cached minimum lane %d's", i, c)
		}
	}
	if n != e.inFlight {
		t.Fatalf("lanes hold %d frames, engine counts %d in flight", n, e.inFlight)
	}
	heapLen := 0
	for i := range e.q.q {
		if i == 0 && e.q.hole {
			continue
		}
		heapLen++
		if at := e.q.q[i].at; at >= e.farB {
			t.Fatalf("heap slot %d is due at %v, not before farB %v", i, at, e.farB)
		}
	}
	for i, ev := range e.far {
		if ev.index != -2-i || ev.at < e.farB {
			t.Fatalf("far slot %d holds an event at %v with index %d, want at or after farB %v with index %d",
				i, ev.at, ev.index, e.farB, -2-i)
		}
	}
	want := maxTime
	if len(e.far) > 0 {
		want = e.farB - 1
	}
	if e.horizon != want {
		t.Fatalf("horizon %v with %d far events, want %v", e.horizon, len(e.far), want)
	}
	if p := heapLen + n + len(e.far); e.Pending() != p {
		t.Fatalf("Pending %d, but heap, lanes and far set hold %d", e.Pending(), p)
	}
}

// oracleEngine is the simplest engine that can be right: events are
// never pooled, deliveries are ordinary events, and the pending set is
// the container/heap oracle.
type oracleEngine struct {
	now    Time
	seq    uint64
	q      eventQueue
	bounds []Time // the real engine's boundary answers, in order
}

func (o *oracleEngine) Now() Time        { return o.now }
func (o *oracleEngine) Pending() int     { return len(o.q) }
func (o *oracleEngine) audit(*testing.T) {}

func (o *oracleEngine) boundary() Time {
	if len(o.bounds) == 0 {
		return 0 // the programs diverged; comparing the logs shows where
	}
	b := o.bounds[0]
	o.bounds = o.bounds[1:]
	return b
}

func (o *oracleEngine) PeekTime() (Time, bool) {
	if len(o.q) == 0 {
		return 0, false
	}
	return o.q[0].at, true
}

func (o *oracleEngine) schedule(at Time, key uint64, fn func()) func() {
	ev := &Event{at: at, key: key, seq: o.seq, fn: fn}
	o.seq++
	heap.Push(&o.q, ev)
	return func() {
		if ev.index >= 0 {
			heap.Remove(&o.q, ev.index)
		}
	}
}

func (o *oracleEngine) deliver(at Time, key uint64, fn func()) { o.schedule(at, key, fn) }

func (o *oracleEngine) RunUntil(deadline Time) {
	for len(o.q) > 0 && o.q[0].at <= deadline {
		ev := heap.Pop(&o.q).(*Event)
		o.now = ev.at
		ev.fn()
	}
	if o.now < deadline {
		o.now = deadline
	}
}

// The pooled-Event ABA regression: a handle whose event has fired (and
// whose Event struct was reused for an unrelated callback) must not be
// able to cancel the reused event.
func TestCancelStaleHandleABA(t *testing.T) {
	e := NewEngine()
	stale := e.At(Microsecond, func() {})
	e.Run() // fires; the Event returns to the freelist

	fired := false
	fresh := e.At(2*Microsecond, func() { fired = true }) // reuses the pooled Event
	e.Cancel(stale)                                       // stale handle: must be a no-op
	if fresh.Armed() != true {
		t.Fatal("fresh timer disarmed by a stale handle")
	}
	e.Run()
	if !fired {
		t.Fatal("event cancelled through a stale handle to its reused Event")
	}
	if fresh.Armed() {
		t.Fatal("fired timer still reports armed")
	}
}

// A handle taken before an event fires must also be inert afterwards,
// even when no reuse happened yet.
func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	h := e.At(Microsecond, func() {})
	e.Run()
	e.Cancel(h) // no-op; must not corrupt the freelist
	n := 0
	e.At(2*Microsecond, func() { n++ })
	e.At(3*Microsecond, func() { n++ })
	e.Run()
	if n != 2 {
		t.Fatalf("fired %d events after stale cancel, want 2", n)
	}
}

// Property: under any random mix of keyed timers, deliveries, cancels
// and bounded run slices, the Engine fires exactly the (time, key,
// order) sequence of the container/heap oracle engine, and reports the
// same Pending and PeekTime after every operation and from inside every
// callback — that is, while the pop's hole is still open. This is the
// contract every result digest builds on; the
// canonical key is drawn from all three bands (ordinary 0, wire keys,
// arrival keys) with dense same-timestamp ties. Deliveries cover every
// way a frame can meet the rest of the pending set: a few offset classes
// (all on lanes), bursts of strictly decreasing times (more runs than
// lanes: the heap fallback), equal times pushed in descending key order
// (tail insertion), key-0 ties lane against lane and lane against heap
// (seq decides), and times that run slices then end on, inclusively and
// exclusively.
func TestSchedulerEquivalence(t *testing.T) {
	type rec struct {
		at, peek Time
		id, pend int
	}
	keys := []uint64{0, 0, 1, 2, 7, 40, ArrivalKey(0), ArrivalKey(3)}
	offsets := []Time{3 * Nanosecond, 5 * Nanosecond, 7 * Nanosecond, 400 * Nanosecond}
	run := func(e simulator, seed int64, n int) []rec {
		rng := rand.New(rand.NewSource(seed))
		var log []rec
		var cancels []func()
		var marks []Time // delivery times for run slices to end on
		id := 0
		// note logs the engine's view of the pending set; id < 0 marks an
		// operation rather than a fired event.
		note := func(id int) {
			peek, _ := e.PeekTime()
			log = append(log, rec{e.Now(), peek, id, e.Pending()})
			e.audit(t)
		}
		var body func() func()
		timer := func(at Time, key uint64) {
			if id < n {
				cancels = append(cancels, e.schedule(at, key, body()))
				note(-1)
			}
		}
		deliver := func(at Time, key uint64) {
			if id < n {
				e.deliver(at, key, body())
				note(-2)
			}
		}
		// body is the callback of event id, timer or delivery alike: it
		// schedules follow-ups of both kinds and cancels.
		body = func() func() {
			me := id
			id++
			return func() {
				note(me)
				// Zero to two follow-up timers with varied gaps, including
				// zero-gap ties, far-future tails, gaps past the far span
				// and times at the far boundary and a picosecond either
				// side of it.
				for k := []int{0, 1, 1, 1, 2, 2}[rng.Intn(6)]; k > 0; k-- {
					gaps := []Time{0, Time(rng.Intn(5)) * Nanosecond,
						Time(rng.Intn(1000)) * Nanosecond,
						Time(rng.Intn(100)) * Microsecond,
						farSpan + Time(rng.Int63n(int64(farSpan))),
						e.boundary() + Time(rng.Intn(3)-1) - e.Now()}
					if gap := gaps[rng.Intn(len(gaps))]; gap >= 0 {
						timer(e.Now()+gap, keys[rng.Intn(len(keys))])
					}
				}
				now := e.Now()
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // the common case: clock plus a class offset
					deliver(now+offsets[rng.Intn(len(offsets))], keys[rng.Intn(len(keys))])
				case 4: // more descending runs than lanes
					for j := Time(10); j > 0; j-- {
						deliver(now+j*13*Nanosecond, keys[rng.Intn(len(keys))])
					}
				case 5: // one time, keys descending
					at := now + offsets[rng.Intn(len(offsets))]
					for _, key := range []uint64{ArrivalKey(3), 40, 7, 2, 2, 1, 0} {
						deliver(at, key)
					}
				case 6: // key 0 everywhere: lane, then heap, then a second lane
					at := now + offsets[rng.Intn(len(offsets))]
					deliver(at, 0)
					timer(at, 0)
					deliver(at+9*Nanosecond, 0)
					deliver(at, 0)
					timer(at, 0)
				case 7:
					at := now + Time(rng.Intn(2000))*Nanosecond
					deliver(at, keys[rng.Intn(len(keys))])
					marks = append(marks, at)
				case 8: // a frame at the far boundary, against far timers there
					if at := e.boundary() + Time(rng.Intn(3)-1); at >= now {
						deliver(at, keys[rng.Intn(len(keys))])
					}
				}
				// Randomly cancel an old handle (often already fired —
				// exercising stale-handle safety).
				if rng.Intn(3) == 0 {
					cancels[rng.Intn(len(cancels))]()
					note(-3)
				}
			}
		}
		for i := 0; i < 24; i++ {
			timer(Time(rng.Intn(2000))*Nanosecond, keys[rng.Intn(len(keys))])
		}
		// Run in bounded slices, so deadlines fall between, on and past
		// pending events, and on, beside and across the far boundary.
		for e.Pending() > 0 {
			deadline := e.Now() + Time(1+rng.Intn(3000))*Nanosecond
			if rng.Intn(8) == 0 {
				b := e.boundary() + Time(rng.Intn(3)-1)
				if rng.Intn(2) == 0 {
					b += Time(rng.Int63n(int64(farSpan)))
				}
				deadline = max(deadline, b)
			} else if len(marks) > 0 && rng.Intn(2) == 0 {
				if m := marks[len(marks)-1]; m > e.Now() {
					deadline = m
				}
				marks = marks[:len(marks)-1]
			}
			if rng.Intn(2) == 0 {
				e.RunUntil(deadline)
			} else {
				e.RunUntil(deadline - 1) // stop one picosecond short
			}
			note(-4)
		}
		return log
	}

	var onLane, offLane uint64
	lanes := 0
	var cov farCoverage
	f := func(seed int64) bool {
		const n = 600
		eng := NewEngine()
		var bounds []Time
		got := run(realEngine{eng, &bounds, &cov}, seed, n)
		want := run(&oracleEngine{bounds: bounds}, seed, n)
		onLane += eng.Delivered() - eng.OffLane()
		offLane += eng.OffLane()
		lanes = max(lanes, eng.used)
		if len(got) != len(want) {
			t.Logf("seed %d: oracle logged %d, engine logged %d", seed, len(want), len(got))
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: divergence at %d: oracle %+v engine %+v", seed, i, want[i], got[i])
				return false
			}
		}
		return len(want) >= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if onLane == 0 || offLane == 0 || lanes != numLanes {
		t.Fatalf("%d deliveries rode %d lanes and %d the heap: the program must exercise both, on every lane", onLane, lanes, offLane)
	}
	if cov.migrated == 0 || cov.cancelled == 0 {
		t.Fatalf("%d far timers fired after a migration and %d were cancelled from the far set: the program must exercise both", cov.migrated, cov.cancelled)
	}
	t.Logf("far timers: %d fired after a migration, %d cancelled from the far set", cov.migrated, cov.cancelled)
}

// Times within farSpan of the latest representable instant move farB
// to it, past which it cannot go: the far set then empties into the
// heap whole, and events at that instant still fire, in rank order.
func TestFarBoundarySaturates(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{maxTime, maxTime - 1, maxTime - farSpan, Microsecond, maxTime} {
		e.At(at, func() { got = append(got, at) })
	}
	e.Run()
	want := []Time{Microsecond, maxTime - farSpan, maxTime - 1, maxTime, maxTime}
	if fmt.Sprint(got) != fmt.Sprint(want) || e.Pending() != 0 || e.farB != maxTime {
		t.Fatalf("fired %v with %d pending and farB %v, want %v, 0 and maxTime", got, e.Pending(), e.farB, want)
	}
}

// Directed delivery ties: frames and heap events that share a time fire
// in (key, seq) order whichever structure holds them, and a lane keeps
// that order when equal-time frames are pushed with keys descending.
func TestDeliverTieOrder(t *testing.T) {
	e := NewEngine()
	const at = Microsecond
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }
	e.Deliver(at, 7, fnSink{}, rec(70))
	e.AtKey(at, 5, rec(50))
	e.Deliver(at, 5, fnSink{}, rec(51)) // one lane: walked back past key 7
	e.Deliver(at, 0, fnSink{}, rec(1))  // and to the lane's head
	e.At(at, rec(2))
	e.Deliver(at+Nanosecond, 0, fnSink{}, rec(100))
	e.Deliver(at, 0, fnSink{}, rec(3)) // a second lane: the first has moved on
	e.AtKey(at, 9, rec(90))
	if e.used != 2 || e.OffLane() != 0 {
		t.Fatalf("deliveries claimed %d lanes with %d off-lane, want 2 and 0", e.used, e.OffLane())
	}
	if p, _ := e.PeekTime(); p != at || e.Pending() != 8 {
		t.Fatalf("PeekTime %v with %d pending, want %v with 8", p, e.Pending(), at)
	}
	e.RunUntil(at - 1)
	if len(got) != 0 {
		t.Fatalf("RunUntil(%v) fired %v", at-1, got)
	}
	e.RunUntil(at)
	want := []int{1, 2, 3, 50, 51, 70, 90}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v at the boundary, want %v", got, want)
	}
	e.Run()
	if got[len(got)-1] != 100 || e.Pending() != 0 || e.Fired() != 8 {
		t.Fatalf("fired %v with %d pending after %d events", got, e.Pending(), e.Fired())
	}
}

// heapPair drives heap4 and the oracle with the same operations. Event
// i exists twice (each structure owns its copy's index field); the gen
// field, which neither structure reads, carries i.
type heapPair struct {
	t    *testing.T
	h    heap4
	o    eventQueue
	mine []*Event // heap4's copies, by id
	ref  []*Event // the oracle's copies, by id
}

func (p *heapPair) push(at Time, key uint64) {
	id := uint64(len(p.mine))
	p.mine = append(p.mine, &Event{at: at, key: key, seq: id, gen: id, index: -1})
	p.ref = append(p.ref, &Event{at: at, key: key, seq: id, gen: id, index: -1})
	p.h.push(p.mine[id])
	heap.Push(&p.o, p.ref[id])
}

// pop pops both sides through limit and requires the same event.
func (p *heapPair) pop(limit Time) {
	p.t.Helper()
	var want *Event
	if len(p.o) > 0 && p.o[0].at <= limit {
		want = heap.Pop(&p.o).(*Event)
	}
	p.same("pop", p.h.popThrough(limit), want)
}

func (p *heapPair) remove(id uint64) {
	p.h.remove(p.mine[id])
	heap.Remove(&p.o, p.ref[id].index)
}

func (p *heapPair) same(op string, got, want *Event) {
	p.t.Helper()
	switch {
	case got == nil && want == nil:
	case got == nil || want == nil:
		p.t.Fatalf("%s: heap4 returned %v, oracle %v", op, got, want)
	case got.gen != want.gen:
		p.t.Fatalf("%s: heap4 returned event %d (%v,%d), oracle %d (%v,%d)", op,
			got.gen, got.at, got.key, want.gen, want.at, want.key)
	}
}

// check audits heap4's structure: size, heap order between every slot
// and its parent (the vacant root excepted), inline rank equal to the
// event's, and every event's index naming its slot.
func (p *heapPair) check() {
	p.t.Helper()
	h := &p.h
	if h.len() != len(p.o) {
		p.t.Fatalf("heap4 holds %d events, oracle %d", h.len(), len(p.o))
	}
	first := 0
	if h.hole {
		first = 1
	}
	for i := first; i < len(h.q); i++ {
		s := &h.q[i]
		if s.ev.index != i || s.at != s.ev.at || s.key != s.ev.key || s.seq != s.ev.seq {
			p.t.Fatalf("slot %d holds (%v,%d,%d) for event %d with rank (%v,%d,%d) index %d",
				i, s.at, s.key, s.seq, s.ev.gen, s.ev.at, s.ev.key, s.ev.seq, s.ev.index)
		}
		if parent := (i - 1) >> 2; i > 0 && parent >= first && s.before(&h.q[parent].rank) {
			p.t.Fatalf("slot %d ranks before its parent %d", i, parent)
		}
	}
}

// Every heap operation, issued in random order and therefore also while
// a pop's hole is open, must agree with the oracle and leave a valid
// heap. The tie-heavy streams draw times from four values and keys from
// three, so siblings that share a time and differ only in key, or only
// in seq, meet at every level and the exact-rank fallback of the
// min-of-four decides them.
func TestHeap4AgainstOracle(t *testing.T) {
	const (
		opPush = iota
		opPushMin
		opPop
		opPopLimit
		opPeek
		opRemove
		opRemoveLast
		numOps
	)
	for _, mode := range []string{"ties", "spread"} {
		t.Run(mode, func(t *testing.T) {
			var holeOps [numOps]int
			for seed := int64(1); seed <= 30; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p := &heapPair{t: t}
				randAt := func() Time {
					if mode == "ties" {
						return Time(10 + rng.Intn(4))
					}
					return Time(10 + rng.Intn(1_000_000))
				}
				for step := 0; step < 3000; step++ {
					op := [...]int{opPush, opPush, opPush, opPush, opPushMin, opPop, opPop, opPop,
						opPopLimit, opPeek, opRemove, opRemoveLast}[rng.Intn(12)]
					if p.h.hole {
						holeOps[op]++
					}
					switch op {
					case opPush:
						p.push(randAt(), uint64(rng.Intn(3)))
					case opPushMin: // ranks before every queued event
						if len(p.o) > 0 && p.o[0].at > 0 {
							p.push(p.o[0].at-1, 0)
						}
					case opPop: // twice: the second finds the first's hole
						p.pop(maxTime)
						p.pop(maxTime)
					case opPopLimit:
						p.pop(randAt())
					case opPeek:
						var got, want *Event
						if s := p.h.min(); s != nil {
							got = s.ev
						}
						if len(p.o) > 0 {
							want = p.o[0]
						}
						p.same("peek", got, want)
					case opRemove:
						if n := len(p.o); n > 0 {
							p.remove(p.o[rng.Intn(n)].gen)
						}
					case opRemoveLast:
						if p.h.len() > 0 {
							p.remove(p.h.q[len(p.h.q)-1].ev.gen)
						}
					}
					p.check()
				}
				for len(p.o) > 0 {
					p.pop(maxTime)
				}
				p.pop(maxTime)
				p.check()
			}
			for op, n := range holeOps {
				if n == 0 {
					t.Errorf("operation %d never ran with the hole open", op)
				}
			}
		})
	}
}

// Property: the arithmetic min-of-four picks the slot four Event.Before
// calls pick, for times drawn from the edges of the non-negative range
// and at random, with ties broken by key and then by seq.
func TestMinOf4MatchesBefore(t *testing.T) {
	f := func(pick, key [4]uint8, raw [4]int64, perm uint8) bool {
		small := raw[0] & 0xffff
		palette := []int64{0, 1, small, small + 1, math.MaxInt64, math.MaxInt64 - 1}
		var evs [4]Event
		var g [4]slot
		for j := range g {
			at := raw[j] & math.MaxInt64
			if c := int(pick[j]) % (len(palette) + 2); c < len(palette) {
				at = palette[c]
			}
			// seq is a permutation of 0..3, so ranks are distinct.
			evs[j] = Event{at: Time(at), key: uint64(key[j] % 3), seq: uint64((j + int(perm)) % 4)}
			g[j] = slot{rank{evs[j].at, evs[j].key, evs[j].seq}, &evs[j]}
		}
		want := 0
		for j := 1; j < 4; j++ {
			if evs[j].Before(&evs[want]) {
				want = j
			}
		}
		return minOf4(&g) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// Directed canonical-rank coverage: many events tied at one timestamp
// with interleaved keys must fire in (key, seq) order — ordinary key-0
// events first in scheduling order, then wire keys ascending, then
// arrival keys — and removing a tied event must not perturb its
// neighbors.
func TestCanonicalKeyTieOrder(t *testing.T) {
	e := NewEngine()
	const at = Microsecond
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }
	// Scheduling order deliberately scrambles key order.
	e.AtKey(at, 5, rec(50))             // wire key 5
	e.AtKey(at, 0, rec(1))              // ordinary
	e.AtKey(at, ArrivalKey(1), rec(91)) // arrival gen 1
	e.AtKey(at, 2, rec(20))             // wire key 2
	victim := e.AtKey(at, 2, rec(21))   // wire key 2, later seq — removed below
	e.AtKey(at, 0, rec(2))              // ordinary, later seq
	e.AtKey(at, ArrivalKey(0), rec(90)) // arrival gen 0
	e.AtKey(at, 2, rec(22))             // wire key 2, latest seq
	e.Cancel(victim)
	e.Run()
	want := []int{1, 2, 20, 22, 50, 90, 91}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// BenchmarkEngineHold is the hold model at the depth the paper FatTree
// runs at (≈ 500 pending) and far beyond it: the engine carries depth
// pending events; each op schedules one more and fires the earliest.
// Same shape as the ledger's sim.hold_ns_* micro-drivers.
func BenchmarkEngineHold(b *testing.B) {
	for _, depth := range []int{512, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEngine()
			rng := rand.New(rand.NewSource(1))
			nop := func() {}
			delay := func() Time { return Time(1+rng.Intn(1000)) * Nanosecond }
			for i := 0; i < depth; i++ {
				e.After(delay(), nop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(delay(), nop)
				e.Step()
			}
		})
	}
}

// BenchmarkEngineCancel arms and cancels a timer over a 1k-deep queue —
// the per-flow rate/alpha/RTO timer pattern (the ledger's
// sim.cancel_ns).
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	for i := 0; i < 1000; i++ {
		e.After(Time(1+i)*Microsecond, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.After(Time(1+i%997)*Nanosecond, nop))
	}
}

// BenchmarkEngineFarTimers is a RoCE sender's retransmission backstop
// at ≈ 100 live flows: a hold over 100 short events, and each op also
// arms a 1 ms timer and cancels the one armed 100 ops earlier, long
// before it is due — the far set's arm/cancel pattern.
func BenchmarkEngineFarTimers(b *testing.B) {
	const live = 100
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	nop := func() {}
	delay := func() Time { return Time(1+rng.Intn(1000)) * Nanosecond }
	var rto [live]Timer
	for i := range rto {
		e.After(delay(), nop)
		rto[i] = e.After(Millisecond, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(delay(), nop)
		e.Step()
		k := i % live
		e.Cancel(rto[k])
		rto[k] = e.After(Millisecond, nop)
	}
}
