package sim

import (
	"testing"
)

// Engine.Checkpoint/Rollback must replay the exact firing sequence —
// same times, same order — including when the workload reschedules and
// cancels through pre-checkpoint Timer handles (the pointer-stability
// contract).
func TestEngineCheckpointRollback(t *testing.T) {
	type fireRec struct {
		at Time
		id int
	}
	for _, mk := range []struct {
		name string
		fn   func() *Engine
	}{
		{"heap", NewEngine},
	} {
		t.Run(mk.name, func(t *testing.T) {
			// Deterministic self-rescheduling workload: no runtime
			// randomness, so a rolled-back span replays identically.
			gaps := []Time{0, 3 * Nanosecond, 111 * Nanosecond, 7 * Microsecond}
			build := func(e *Engine) (run func(until Time), state *struct {
				fired  []fireRec
				timers []Timer
				nextID int
			}) {
				st := &struct {
					fired  []fireRec
					timers []Timer
					nextID int
				}{}
				var schedule func(at Time)
				schedule = func(at Time) {
					id := st.nextID
					st.nextID++
					st.timers = append(st.timers, e.AtKey(at, uint64(id%5), func() {
						st.fired = append(st.fired, fireRec{e.Now(), id})
						if st.nextID < 600 {
							schedule(e.Now() + gaps[id%len(gaps)])
							if id%3 == 0 {
								schedule(e.Now() + gaps[(id+1)%len(gaps)])
							}
						}
						if id%4 == 1 {
							e.Cancel(st.timers[id/2])
						}
					}))
				}
				for i := 0; i < 6; i++ {
					schedule(Time(i*i) * 50 * Nanosecond)
				}
				return e.RunUntil, st
			}

			// Reference: uninterrupted run.
			re := mk.fn()
			runRef, ref := build(re)
			runRef(5 * Millisecond)

			// Checkpoint mid-run, run on, roll back, run again: both
			// tails must equal each other and the reference.
			e := mk.fn()
			runE, st := build(e)
			runE(Microsecond)
			e.Checkpoint()
			savedFired, savedTimers, savedID := len(st.fired), len(st.timers), st.nextID

			runE(5 * Millisecond)
			tail1 := append([]fireRec(nil), st.fired[savedFired:]...)

			e.Rollback()
			st.fired = st.fired[:savedFired]
			st.timers = st.timers[:savedTimers]
			st.nextID = savedID
			runE(5 * Millisecond)
			tail2 := st.fired[savedFired:]

			if len(tail1) == 0 {
				t.Fatal("no events fired after the checkpoint — test is vacuous")
			}
			if len(tail1) != len(tail2) {
				t.Fatalf("replay fired %d events, first run fired %d", len(tail2), len(tail1))
			}
			for i := range tail1 {
				if tail1[i] != tail2[i] {
					t.Fatalf("replay diverged at %d: %v vs %v", i, tail2[i], tail1[i])
				}
			}
			if len(st.fired) != len(ref.fired) {
				t.Fatalf("rolled-back run fired %d events, reference fired %d", len(st.fired), len(ref.fired))
			}
			for i := range ref.fired {
				if st.fired[i] != ref.fired[i] {
					t.Fatalf("rolled-back run diverged from reference at %d: %v vs %v", i, st.fired[i], ref.fired[i])
				}
			}
		})
	}
}

// specMsg is one cross-shard message of the speculative-group tests.
type specMsg struct {
	at  Time
	val int
}

// specWorld is a minimal two-shard world for ShardGroup speculation:
// engine a produces messages for engine b. It implements Speculator
// (per-shard checkpoint of engine + harness state, staged exchange)
// and provides the conservative Exchange for fallback epochs.
type specWorld struct {
	a, b      *Engine
	outbox    []specMsg
	staged    []specMsg
	delivered []specMsg
	savedOut  int
	savedDel  int
}

func (w *specWorld) deliver(m specMsg) {
	w.b.At(m.at, func() {
		w.delivered = append(w.delivered, specMsg{w.b.Now(), m.val})
	})
}

func (w *specWorld) Exchange(now Time) {
	for _, m := range w.outbox {
		w.deliver(m)
	}
	w.outbox = w.outbox[:0]
}

func (w *specWorld) Save(i int) {
	if i == 0 {
		w.a.Checkpoint()
		w.savedOut = len(w.outbox)
	} else {
		w.b.Checkpoint()
		w.savedDel = len(w.delivered)
	}
}

func (w *specWorld) Restore(i int) {
	if i == 0 {
		w.a.Rollback()
		w.outbox = w.outbox[:w.savedOut]
	} else {
		w.b.Rollback()
		w.delivered = w.delivered[:w.savedDel]
	}
}

func (w *specWorld) Stage() (Time, bool) {
	earliest, any := Time(0), false
	for _, m := range w.outbox {
		if !any || m.at < earliest {
			earliest = m.at
		}
		any = true
	}
	w.staged = append(w.staged, w.outbox...)
	w.outbox = w.outbox[:0]
	return earliest, any
}

func (w *specWorld) Commit() {
	for _, m := range w.staged {
		w.deliver(m)
	}
	w.staged = w.staged[:0]
}

func (w *specWorld) Discard() { w.staged = w.staged[:0] }

// runSpecWorld builds the two-engine world (50 sends, 37ns apart, each
// arriving extra past the lookahead bound) and runs it to 10us.
func runSpecWorld(t *testing.T, speculate bool, window int, extra func(i int) Time) (*specWorld, SyncStats) {
	t.Helper()
	const lookahead = 100 * Nanosecond
	w := &specWorld{a: NewEngine(), b: NewEngine()}
	for i := 0; i < 50; i++ {
		i := i
		at := Time(i) * 37 * Nanosecond
		w.a.At(at, func() {
			w.outbox = append(w.outbox, specMsg{at: w.a.Now() + lookahead + extra(i), val: i})
		})
	}
	g := &ShardGroup{
		Engines:   []*Engine{w.a, w.b},
		Lookahead: lookahead,
		Exchange:  w.Exchange,
		Speculate: speculate,
		Window:    window,
		Spec:      w,
	}
	if err := g.RunUntil(10 * Microsecond); err != nil {
		t.Fatal(err)
	}
	return w, g.Stats
}

// With every arrival far past the speculation window, every bet is
// safe: the run must commit speculative epochs, never roll back, and
// deliver the exact conservative sequence.
func TestShardGroupSpeculativeCommits(t *testing.T) {
	farOut := func(i int) Time { return Time(1200+i) * Nanosecond }
	ref, _ := runSpecWorld(t, false, 0, farOut)
	got, stats := runSpecWorld(t, true, 8, farOut)
	if stats.SpecCommits == 0 {
		t.Fatalf("no speculative commits: %+v", stats)
	}
	if stats.SpecRollbacks != 0 {
		t.Fatalf("safe world rolled back: %+v", stats)
	}
	compareDeliveries(t, got.delivered, ref.delivered)
}

// With arrivals landing just past the lookahead bound — inside any
// speculated horizon — bets lose: the group must roll back, replay
// conservatively, adapt, and still deliver the exact sequence.
func TestShardGroupSpeculativeRollbacks(t *testing.T) {
	near := func(i int) Time { return Time(i%3) * Nanosecond }
	ref, _ := runSpecWorld(t, false, 0, near)
	got, stats := runSpecWorld(t, true, 8, near)
	if stats.SpecRollbacks == 0 {
		t.Fatalf("hostile world never rolled back: %+v", stats)
	}
	compareDeliveries(t, got.delivered, ref.delivered)
}

func compareDeliveries(t *testing.T, got, want []specMsg) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %v, want %v", i, got[i], want[i])
		}
	}
	if len(want) != 50 {
		t.Fatalf("reference delivered %d messages, want 50", len(want))
	}
}

// Misconfigured groups must report errors before running anything —
// the former panics.
func TestShardGroupConfigErrors(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	for name, g := range map[string]*ShardGroup{
		"no engines":       {},
		"nil engine":       {Engines: []*Engine{a, nil}, Lookahead: Nanosecond},
		"duplicate engine": {Engines: []*Engine{a, a}, Lookahead: Nanosecond},
		"zero lookahead":   {Engines: []*Engine{a, b}},
		"spec without speculator": {Engines: []*Engine{a, b}, Lookahead: Nanosecond,
			Speculate: true},
	} {
		if err := g.RunUntil(Microsecond); err == nil {
			t.Errorf("%s: RunUntil returned nil error", name)
		}
	}
	// A valid group still runs.
	ok := &ShardGroup{Engines: []*Engine{a, b}, Lookahead: Nanosecond}
	if err := ok.RunUntil(Microsecond); err != nil {
		t.Errorf("valid group errored: %v", err)
	}
}

// The scheduler must not allocate at steady depth: a hold fills the
// hole its pop left, a cancel takes its slot back out, and fired events
// recycle through the free list.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	for i := 0; i < 512; i++ {
		e.After(Time(1+i)*Microsecond, nop)
	}
	spread := []Time{0, 3 * Nanosecond, 40 * Nanosecond, 2 * Microsecond, 800 * Microsecond}
	i := 0
	hold := func() {
		for k := 0; k < 512; k++ {
			e.After(spread[i%len(spread)], nop)
			i++
			e.Step()
		}
	}
	cancel := func() {
		for k := 0; k < 512; k++ {
			e.Cancel(e.After(spread[i%len(spread)], nop))
			i++
		}
	}
	for name, op := range map[string]func(){"hold": hold, "cancel": cancel} {
		op() // warm the free list and the heap array
		if n := testing.AllocsPerRun(20, op); n != 0 {
			t.Errorf("%s at depth %d allocates %v objects per 512 ops, want 0", name, e.Pending(), n)
		}
	}
}
