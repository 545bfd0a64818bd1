package stats

import (
	"testing"

	"hpcc/internal/sim"
)

// The retention cap must plateau like CompletedFlowWindow: however long
// the horizon, the monitor holds at most SampleCap rows, thinned to an
// even power-of-two stride over the whole run — not truncated at the
// front or back.
func TestQueueMonitorSampleCapPlateau(t *testing.T) {
	const interval = 10 * sim.Microsecond
	const capRows = 32
	eng := sim.NewEngine()
	// No ports: the mechanism under test is per-tick row retention,
	// which depends only on the tick schedule.
	m := NewQueueMonitor(eng, nil, 0, interval, 100*sim.Millisecond)
	m.SampleCap = capRows

	var streamed int
	m.OnSample = func(TimePoint) { streamed++ }

	high := 0
	for step := 0; step < 10; step++ {
		eng.RunUntil(sim.Time(step+1) * 10 * sim.Millisecond)
		if n := len(m.Series); n > high {
			high = n
		}
		if len(m.Series) > capRows {
			t.Fatalf("after %d ms: %d retained rows, cap %d", (step+1)*10, len(m.Series), capRows)
		}
	}
	if high < capRows/2 {
		t.Fatalf("high-water %d rows — cap %d never approached, test is vacuous", high, capRows)
	}
	// 10 ms / 10 µs = 1000 ticks per step, 10000 total.
	if streamed != 10000 {
		t.Fatalf("streamed %d ticks, want 10000 (OnSample must see every tick)", streamed)
	}
	// Retained instants are evenly strided: consecutive Series times
	// differ by exactly stride × interval for one power-of-two stride.
	if len(m.Series) < 2 {
		t.Fatalf("only %d retained rows", len(m.Series))
	}
	gap := m.Series[1].T - m.Series[0].T
	stride := gap / interval
	if stride&(stride-1) != 0 || stride == 0 {
		t.Fatalf("stride %d is not a power of two", stride)
	}
	for i := 1; i < len(m.Series); i++ {
		if m.Series[i].T-m.Series[i-1].T != gap {
			t.Fatalf("uneven retained gaps: %v then %v",
				gap, m.Series[i].T-m.Series[i-1].T)
		}
	}
	// The retained window spans the whole run, not just its head.
	if last := m.Series[len(m.Series)-1].T; last < 90*sim.Millisecond {
		t.Fatalf("last retained instant %v — thinning truncated the tail", last)
	}
}

// Without a cap, every tick is retained — the pre-knob behavior.
func TestQueueMonitorUncapped(t *testing.T) {
	eng := sim.NewEngine()
	m := NewQueueMonitor(eng, nil, 0, 10*sim.Microsecond, sim.Millisecond)
	eng.Run()
	if len(m.Series) != 100 {
		t.Fatalf("retained %d rows, want 100", len(m.Series))
	}
}

// Sketch mode retains no rows and closes a window every FlushEvery
// ticks: contiguous windows, each covering exactly FlushEvery instants,
// while OnSample still sees every tick.
func TestQueueMonitorSketchFlushCadence(t *testing.T) {
	const interval = 10 * sim.Microsecond
	eng := sim.NewEngine()
	m := NewQueueMonitor(eng, nil, 0, interval, 10*sim.Millisecond)
	m.EnableSketch(0)
	m.FlushEvery = 100
	var flushes []QueueFlush
	m.OnFlush = func(f QueueFlush) { flushes = append(flushes, f) }
	streamed := 0
	m.OnSample = func(TimePoint) { streamed++ }
	eng.Run()

	if len(m.Samples) != 0 || len(m.Series) != 0 {
		t.Fatalf("sketch mode retained %d samples / %d series rows", len(m.Samples), len(m.Series))
	}
	if streamed != 1000 {
		t.Fatalf("OnSample saw %d ticks, want 1000", streamed)
	}
	if len(flushes) != 10 {
		t.Fatalf("%d flushes, want 10", len(flushes))
	}
	prev := sim.Time(0)
	for i, f := range flushes {
		if f.Ticks != 100 {
			t.Fatalf("flush %d covers %d ticks, want 100", i, f.Ticks)
		}
		if f.Start != prev {
			t.Fatalf("flush %d window [%v, %v] not contiguous with previous close %v", i, f.Start, f.At, prev)
		}
		prev = f.At
	}
	if prev != 10*sim.Millisecond {
		t.Fatalf("last window closed at %v, want 10ms", prev)
	}
}
