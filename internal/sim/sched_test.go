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
	RunUntil(deadline Time)
}

type realEngine struct{ *Engine }

func (e realEngine) schedule(at Time, key uint64, fn func()) func() {
	t := e.AtKey(at, key, fn)
	return func() { e.Cancel(t) }
}

// oracleEngine is the simplest engine that can be right: events are
// never pooled and the pending set is the container/heap oracle.
type oracleEngine struct {
	now Time
	seq uint64
	q   eventQueue
}

func (o *oracleEngine) Now() Time    { return o.now }
func (o *oracleEngine) Pending() int { return len(o.q) }

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

// Property: under any random mix of keyed schedules, cancels and
// bounded run slices, the Engine fires exactly the (time, key, order)
// sequence of the container/heap oracle engine, and
// reports the same Pending and PeekTime from inside every callback —
// that is, while the pop's hole is still open. This is the contract the
// sharded runner's byte-identical results build on; the canonical key
// is drawn from all three bands (ordinary 0, wire keys, arrival keys)
// with dense same-timestamp ties.
func TestSchedulerEquivalence(t *testing.T) {
	type fireRec struct {
		at, peek Time
		id, pend int
	}
	keys := []uint64{0, 0, 1, 2, 7, 40, ArrivalKey(0), ArrivalKey(3)}
	run := func(e simulator, seed int64, n int) []fireRec {
		rng := rand.New(rand.NewSource(seed))
		var fired []fireRec
		var cancels []func()
		id := 0
		// Seed events; each fired event may reschedule and cancel.
		var schedule func(at Time)
		schedule = func(at Time) {
			me := id
			id++
			cancels = append(cancels, e.schedule(at, keys[rng.Intn(len(keys))], func() {
				peek, _ := e.PeekTime()
				fired = append(fired, fireRec{e.Now(), peek, me, e.Pending()})
				// Reschedule zero to two follow-ups with varied gaps,
				// including zero-gap ties and far-future tails.
				for k := []int{0, 1, 1, 1, 2, 2}[rng.Intn(6)]; k > 0 && id < n; k-- {
					gaps := []Time{0, Time(rng.Intn(5)) * Nanosecond,
						Time(rng.Intn(1000)) * Nanosecond,
						Time(rng.Intn(100)) * Microsecond}
					schedule(e.Now() + gaps[rng.Intn(len(gaps))])
				}
				// Randomly cancel an old handle (often already fired —
				// exercising stale-handle safety).
				if rng.Intn(3) == 0 {
					cancels[rng.Intn(len(cancels))]()
				}
			}))
		}
		for i := 0; i < 24; i++ {
			schedule(Time(rng.Intn(2000)) * Nanosecond)
		}
		// Run in bounded slices, so deadlines fall between, on and past
		// pending events.
		for e.Pending() > 0 {
			e.RunUntil(e.Now() + Time(1+rng.Intn(3000))*Nanosecond)
		}
		return fired
	}

	f := func(seed int64) bool {
		const n = 400
		want := run(&oracleEngine{}, seed, n)
		got := run(realEngine{NewEngine()}, seed, n)
		if len(got) != len(want) {
			t.Logf("seed %d: oracle fired %d, engine fired %d", seed, len(want), len(got))
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: divergence at %d: oracle %+v engine %+v", seed, i, want[i], got[i])
				return false
			}
		}
		return len(want) >= n/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
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
		if parent := (i - 1) >> 2; i > 0 && parent >= first && s.before(&h.q[parent]) {
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
						var want *Event
						if len(p.o) > 0 {
							want = p.o[0]
						}
						p.same("peek", p.h.peek(), want)
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
			g[j] = slot{evs[j].at, evs[j].key, evs[j].seq, &evs[j]}
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
