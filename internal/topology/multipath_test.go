package topology

import (
	"math"
	"testing"

	hpcccc "hpcc/internal/cc/hpcc"
	"hpcc/internal/host"
	"hpcc/internal/sim"
)

func TestParkingLotShape(t *testing.T) {
	eng := sim.NewEngine()
	nw := ParkingLotSpec{Segments: 3}.Build(eng, hcfg(), scfg())
	if len(nw.Switches) != 4 {
		t.Fatalf("switches = %d, want 4", len(nw.Switches))
	}
	if len(nw.Hosts) != 2+2*3 {
		t.Fatalf("hosts = %d, want 8", len(nw.Hosts))
	}
	f := nw.StartFlow(0, 1, 100_000, nil) // long path, 5 hops
	eng.Run()
	if !f.Done() {
		t.Fatal("long flow did not complete")
	}
}

// §3.2 and Appendix A.3: a long flow crossing two congested links
// observes max(U) over both, biasing the allocation away from max-min
// (everyone C/2) toward proportional fairness — long ≈ C/3, locals
// ≈ 2C/3. The measured split lands on the proportional-fair point.
func TestParkingLotProportionalShare(t *testing.T) {
	eng := sim.NewEngine()
	const segments = 2
	nw := ParkingLotSpec{Segments: segments}.Build(eng, hcfg(), scfg())

	acked := make([]int64, 1+segments)
	long := nw.StartFlow(0, 1, 1<<40, nil)
	long.OnProgress = func(_ *host.Flow, n int64) { acked[0] += n }
	for i := 0; i < segments; i++ {
		i := i
		f := nw.StartFlow(2+2*i, 3+2*i, 1<<40, nil)
		f.OnProgress = func(_ *host.Flow, n int64) { acked[1+i] += n }
	}
	// Measure the second half of a 4 ms run (converged regime).
	eng.RunUntil(2 * sim.Millisecond)
	at2ms := append([]int64(nil), acked...)
	eng.RunUntil(4 * sim.Millisecond)

	// Achievable per-link goodput: line × payload fraction × η.
	window := (2 * sim.Millisecond).Seconds()
	lineGoodput := (100 * sim.Gbps).BytesPerSec() * 1000 / 1106 * 0.95 * window
	longBytes := float64(acked[0] - at2ms[0])
	// Proportional-fair prediction: long = C/3.
	if math.Abs(longBytes-lineGoodput/3)/(lineGoodput/3) > 0.25 {
		t.Fatalf("long flow moved %.0f bytes, want ≈ C/3 = %.0f (proportional fairness, A.3)",
			longBytes, lineGoodput/3)
	}
	for i := 1; i < len(acked); i++ {
		local := float64(acked[i] - at2ms[i])
		// Locals take the rest of their segment: ≈ 2C/3.
		if math.Abs(local-2*lineGoodput/3)/(2*lineGoodput/3) > 0.25 {
			t.Fatalf("local flow %d moved %.0f bytes, want ≈ 2C/3 = %.0f", i, local, 2*lineGoodput/3)
		}
		// And each segment ends up fully utilized.
		if (longBytes+local)/lineGoodput < 0.85 {
			t.Fatalf("segment %d utilization %.2f too low", i, (longBytes+local)/lineGoodput)
		}
	}
}

// A route change mid-flow must flip the INT pathID and make HPCC
// rebuild its link records (§4.1) without disturbing delivery.
func TestRouteChangeResetsHPCCPath(t *testing.T) {
	// A — S1 — {S2 or S3} — S4 — B: S1 holds the ECMP choice.
	eng := sim.NewEngine()
	b := NewBuilder(eng, hcfg(), scfg())
	s1, s2, s3, s4 := b.AddSwitch(), b.AddSwitch(), b.AddSwitch(), b.AddSwitch()
	ha := b.AddHost()
	hb := b.AddHost()
	rate := 100 * sim.Gbps
	d := sim.Microsecond
	b.Link(ha, s1, rate, d)
	b.Link(s1, s2, rate, d)
	b.Link(s1, s3, rate, d)
	b.Link(s2, s4, rate, d)
	b.Link(s3, s4, rate, d)
	b.Link(s4, hb, rate, d)
	nw := b.Build(0)

	// Pin the forward path through S2 only (strip ECMP).
	viaS2 := nw.Switches[0].Route(hb.ID())[:1]
	nw.Switches[0].InstallRoute(hb.ID(), viaS2)

	f := nw.StartFlow(0, 1, 1<<30, nil)
	eng.RunUntil(500 * sim.Microsecond)
	alg := f.Alg().(*hpcccc.HPCC)
	pathBefore := alg.PathID()
	if pathBefore == 0 {
		t.Fatal("setup: no INT path recorded yet")
	}

	// Reroute through S3 mid-flow: S1's port 2 (0 = to S2, 1 = to S3
	// per link creation order... port indices are assigned in Link
	// order: S1 gained ports to hostA? No: links were added s1-s2,
	// s1-s3 after ha-s1, so S1 port 0 faces host A, 1 faces S2, 2
	// faces S3).
	nw.Switches[0].InstallRoute(hb.ID(), []int{2})
	eng.RunUntil(1500 * sim.Microsecond)

	if alg.PathID() == pathBefore {
		t.Fatal("pathID unchanged after reroute")
	}
	if alg.WindowBytes() <= 0 || math.IsNaN(alg.WindowBytes()) {
		t.Fatal("window corrupted by reroute")
	}
	f.Abort()
	eng.Run()
}
