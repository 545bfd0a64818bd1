package experiment

import (
	"math"
	"testing"

	"hpcc/internal/sim"
	"hpcc/internal/stats"
)

// queueSeries is a hand-written queue series in bytes, one sample per
// µs from 1 µs on.
func queueSeries(vs ...float64) []stats.TimePoint {
	out := make([]stats.TimePoint, len(vs))
	for i, v := range vs {
		out[i] = stats.TimePoint{T: sim.Time(i+1) * sim.Microsecond, V: v}
	}
	return out
}

func TestStarRunQueueReductions(t *testing.T) {
	us := sim.Microsecond
	for _, c := range []struct {
		name                 string
		queue                []stats.TimePoint
		peak, first, rebuild float64
		drain                sim.Time // DrainTime(1 µs)
		meanAfter3us, median float64
	}{
		{"builds, drains, rebuilds", queueSeries(0, 10, 30, 20, 0, 5, 2), 30, 30, 5, 5 * us, 27.0 / 4, 5},
		{"rebuilds higher", queueSeries(0, 10, 0, 30), 30, 10, 30, -1, 30, 5},
		{"never drains", queueSeries(10, 20, 40, 40), 40, 40, 0, -1, 40, 30},
		{"drains for good", queueSeries(8, 0, 0, 0), 8, 8, 0, 0, 0, 0},
		{"never builds", queueSeries(0, 0, 0), 0, 0, 0, -1, 0, 0},
		{"empty", nil, 0, 0, 0, -1, 0, 0},
	} {
		r := &StarRun{Queue: c.queue}
		if got := r.Peak(); got != c.peak {
			t.Errorf("%s: Peak = %v, want %v", c.name, got, c.peak)
		}
		if first, rebuild := r.Overshoot(); first != c.first || rebuild != c.rebuild {
			t.Errorf("%s: Overshoot = %v, %v, want %v, %v", c.name, first, rebuild, c.first, c.rebuild)
		}
		if got := r.DrainTime(us); got != c.drain {
			t.Errorf("%s: DrainTime = %v, want %v", c.name, got, c.drain)
		}
		if got := r.MeanAfter(3 * us); got != c.meanAfter3us {
			t.Errorf("%s: MeanAfter = %v, want %v", c.name, got, c.meanAfter3us)
		}
		if got := r.Quantile(50); got != c.median {
			t.Errorf("%s: Quantile(50) = %v, want %v", c.name, got, c.median)
		}
	}
}

func TestStarRunFlowReductions(t *testing.T) {
	us := sim.Microsecond
	bin := 10 * us
	r := &StarRun{Dur: 3 * bin, Bin: bin, Acked: stats.NewThroughput(bin),
		// Flow 1 never finished.
		Finished: []sim.Time{9 * us, 0, 14 * us},
		FCT:      []sim.Time{5 * us, 0, 7 * us},
	}
	// 125 KB in a 10 µs bin is 100 Gbps. Flow 0 fills bins 0 and 2 (half);
	// flow 1's bytes land exactly on the edge that opens bin 1.
	r.Acked.Record(0, 0, 125_000)
	r.Acked.Record(0, 25*us, 62_500)
	r.Acked.Record(1, bin, 125_000)

	if got, want := r.Latencies(0), []float64{5, 7}; !equalFloats(got, want) {
		t.Errorf("Latencies(0) = %v, want %v", got, want)
	}
	if got, want := r.Latencies(1), []float64{7}; !equalFloats(got, want) {
		t.Errorf("Latencies(1) = %v, want %v", got, want)
	}
	for _, c := range []struct {
		from, to sim.Time
		want     []float64 // Gbps per flow
	}{
		{0, bin, []float64{100, 0, 0}},
		{bin, 2 * bin, []float64{0, 100, 0}},
		{2 * bin, 3 * bin, []float64{50, 0, 0}},
		{0, 3 * bin, []float64{50, 100.0 / 3, 0}},
		{bin, bin, []float64{0, 0, 0}},
	} {
		if got := r.Rates(c.from, c.to); !equalFloats(got, c.want) {
			t.Errorf("Rates(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	var total []float64
	for _, tp := range r.TotalGoodput() {
		total = append(total, tp.V)
	}
	if want := []float64{100, 100, 50}; !equalFloats(total, want) {
		t.Errorf("TotalGoodput = %v, want %v", total, want)
	}
	if got, want := r.MeanGoodput(), 250.0/3; !equalFloats([]float64{got}, []float64{want}) {
		t.Errorf("MeanGoodput = %v, want %v", got, want)
	}
}

func equalFloats(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// runStar samples the port toward the sink by index: StarSpec links
// host i to switch port i. A cell without a sink samples nothing, and
// one with QueueFrom samples from then on.
func TestStarSinkPort(t *testing.T) {
	nw := starCell{Scheme: ByNameMust("hpcc"), Hosts: 5, Rate: 25 * sim.Gbps, Seed: 1}.start(sim.NewEngine()).Network
	for i, h := range nw.Hosts {
		if peer := nw.Switches[0].Ports()[i].Peer().ID(); peer != h.ID() {
			t.Errorf("switch port %d faces node %v, want host %d (%v)", i, peer, i, h.ID())
		}
	}

	cell := starCell{Scheme: ByNameMust("hpcc"), Hosts: 3, Rate: 25 * sim.Gbps, Flows: longFlows(2, 2),
		Dur: 50 * sim.Microsecond, Bin: 10 * sim.Microsecond, Sink: -1, Seed: 1}
	if q := runStar(cell).Queue; len(q) != 0 {
		t.Errorf("no sink: %d queue samples, want none", len(q))
	}
	cell.Sink, cell.QueueFrom = 2, 20*sim.Microsecond
	r := runStar(cell)
	if len(r.Queue) == 0 || r.Peak() == 0 {
		t.Fatalf("sink 2: %d samples, peak %v; want a queue", len(r.Queue), r.Peak())
	}
	if first := r.Queue[0].T; first <= cell.QueueFrom {
		t.Errorf("sink 2 from %v: first sample at %v", cell.QueueFrom, first)
	}
}
