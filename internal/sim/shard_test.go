package sim

import (
	"testing"
)

// Two engines exchanging timed messages through epoch barriers must
// deliver every message at its exact virtual time, in order, regardless
// of which epoch it was produced in.
func TestShardGroupExchange(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	const lookahead = 100 * Nanosecond

	type msg struct {
		at  Time
		val int
	}
	var outbox []msg // filled on a's goroutine, drained at barriers
	var delivered []msg

	// a emits a message every 37ns; each arrives at b lookahead later
	// (b replies by emitting nothing — one-directional suffices here).
	for i := 0; i < 50; i++ {
		i := i
		at := Time(i) * 37 * Nanosecond
		a.At(at, func() {
			outbox = append(outbox, msg{at: a.Now() + lookahead, val: i})
		})
	}
	// b also has sparse local events far apart, so the event-driven
	// epoch skip gets exercised.
	bLocal := 0
	b.At(5*Microsecond, func() { bLocal++ })

	g := &ShardGroup{
		Engines:   []*Engine{a, b},
		Lookahead: lookahead,
		Exchange: func(now Time) {
			for _, m := range outbox {
				m := m
				if m.at < now {
					t.Fatalf("message for %v exchanged after the barrier at %v", m.at, now)
				}
				b.At(m.at, func() {
					delivered = append(delivered, msg{b.Now(), m.val})
				})
			}
			outbox = outbox[:0]
		},
	}
	g.RunUntil(10 * Microsecond)

	if len(delivered) != 50 {
		t.Fatalf("delivered %d messages, want 50", len(delivered))
	}
	for i, m := range delivered {
		want := Time(i)*37*Nanosecond + lookahead
		if m.val != i || m.at != want {
			t.Fatalf("delivery %d = (%v, %d), want (%v, %d)", i, m.at, m.val, want, i)
		}
	}
	if bLocal != 1 {
		t.Fatal("b's local event did not fire")
	}
	if a.Now() != 10*Microsecond || b.Now() != 10*Microsecond {
		t.Fatalf("clocks at %v/%v, want both at 10us", a.Now(), b.Now())
	}
}

// A single-engine group degrades to plain RunUntil plus one Exchange.
func TestShardGroupSingle(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(Microsecond, func() { fired = true })
	barriers := 0
	g := &ShardGroup{Engines: []*Engine{e}, Lookahead: Nanosecond,
		Exchange: func(Time) { barriers++ }}
	g.RunUntil(2 * Microsecond)
	if !fired || barriers != 1 || e.Now() != 2*Microsecond {
		t.Fatalf("fired=%v barriers=%d now=%v", fired, barriers, e.Now())
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
