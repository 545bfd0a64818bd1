package stats

import (
	"testing"

	"hpcc/internal/sim"
)

// Exact mode retains every tick.
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
	m.EnableSketch()
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
