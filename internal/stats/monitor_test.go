package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hpcc/internal/fabric"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// Exact mode streams every tick to OnSample.
func TestQueueMonitorUncapped(t *testing.T) {
	eng := sim.NewEngine()
	m := NewQueueMonitor(eng, nil, 10*sim.Microsecond, sim.Millisecond)
	ticks := 0
	m.OnSample = func(TimePoint) { ticks++ }
	eng.Run()
	if ticks != 100 {
		t.Fatalf("OnSample saw %d ticks, want 100", ticks)
	}
}

// Sketch mode keeps no exact depths and closes a window every FlushEvery
// ticks: contiguous windows, each covering exactly FlushEvery instants,
// while OnSample still sees every tick.
func TestQueueMonitorSketchFlushCadence(t *testing.T) {
	const interval = 10 * sim.Microsecond
	eng := sim.NewEngine()
	m := NewQueueMonitor(eng, nil, interval, 10*sim.Millisecond)
	m.EnableSketch()
	var flushes []QueueFlush
	m.OnFlush = func(f QueueFlush) { flushes = append(flushes, f) }
	streamed := 0
	m.OnSample = func(TimePoint) { streamed++ }
	eng.Run()

	if len(m.Depths()) != 0 {
		t.Fatalf("sketch mode kept %d exact depths", len(m.Depths()))
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

// sink is a node that absorbs whatever reaches it.
type sink struct{}

func (sink) ID() fabric.NodeID                           { return 0 }
func (sink) HandleArrival(*packet.Packet, *fabric.Port)  {}
func (sink) OnDequeue(*packet.Packet, int, *fabric.Port) {}

// The memory contract of exact mode: a standing queue on each of four
// PFC-paused ports is a fixed set of depths, and the retained counts
// stay flat while the horizon, and with it the number of observations,
// grows 10×.
func TestExactQueueRetainedBytesFlatInHorizon(t *testing.T) {
	run := func(horizon sim.Time) *QueueMonitor {
		eng := sim.NewEngine()
		var ports []*fabric.Port
		for i := range 4 {
			p, _ := fabric.Connect(eng, sink{}, sink{}, 0, 0, 100*sim.Gbps, sim.Microsecond)
			p.SetPaused(true)
			for range i + 1 {
				p.Enqueue(&packet.Packet{Type: packet.Data, Size: 1000}, -1)
			}
			ports = append(ports, p)
		}
		m := NewQueueMonitor(eng, ports, 10*sim.Microsecond, horizon)
		eng.Run()
		return m
	}
	short, long := run(sim.Millisecond), run(10*sim.Millisecond)
	if n := long.Summary().N; n != 4000 || short.Summary().N != 400 {
		t.Fatalf("observed %d and %d depths, want 400 and 4000", short.Summary().N, n)
	}
	want := []DepthCount{{1000, 1000}, {2000, 1000}, {3000, 1000}, {4000, 1000}}
	if got := long.Depths(); !slices.Equal(got, want) {
		t.Fatalf("depths %v, want %v", got, want)
	}
	if s, l := short.RetainedBytes(), long.RetainedBytes(); s != 4*depthCountBytes || l != s {
		t.Errorf("retained %d B at 1 ms and %d B at 10 ms, want %d B at both", s, l, 4*depthCountBytes)
	}
}

// Property: the exact monitor's statistics, computed from its depth
// counts, equal Summarize and Percentile over the expanded samples bit
// for bit — on random integer multisets including a single sample, all
// samples equal, and p = 0 and 100.
func TestDepthCountsMatchExpandedSamples(t *testing.T) {
	f := func(seed int64, n uint8, spread uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewQueueMonitor(sim.NewEngine(), nil, sim.Microsecond, 0)
		xs := make([]float64, int(n)+1)
		for i := range xs {
			d := rng.Int63n(int64(spread) + 1)
			if spread%3 == 0 {
				d *= 1 << 20 // deep queues, MB apart
			}
			m.count(d)
			xs[i] = float64(d)
		}
		if m.Summary() != Summarize(xs) {
			t.Logf("summary %+v, want %+v", m.Summary(), Summarize(xs))
			return false
		}
		for _, p := range []float64{0, 0.1, 25, 50, 95, 99, 99.9, 100} {
			if got, want := percentileDepths(m.Depths(), int64(len(xs)), p), Percentile(xs, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("p%v = %v, want %v", p, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// The edge multisets, one sample and all samples equal, explicitly.
	for _, xs := range [][]int64{{7}, {0}, {5, 5, 5, 5}, {0, 0}} {
		m := NewQueueMonitor(sim.NewEngine(), nil, sim.Microsecond, 0)
		fs := make([]float64, len(xs))
		for i, d := range xs {
			m.count(d)
			fs[i] = float64(d)
		}
		ds, n := m.Depths(), int64(len(fs))
		if m.Summary() != Summarize(fs) || percentileDepths(ds, n, 0) != Percentile(fs, 0) || percentileDepths(ds, n, 100) != Percentile(fs, 100) {
			t.Errorf("%v: summary %+v, want %+v", xs, m.Summary(), Summarize(fs))
		}
	}
	if m := NewQueueMonitor(sim.NewEngine(), nil, sim.Microsecond, 0); m.Summary() != (Summary{}) {
		t.Error("empty monitor: want the zero summary")
	}
}
