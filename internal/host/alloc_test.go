package host

import (
	"testing"

	"hpcc/internal/fabric"
	"hpcc/internal/sim"
)

// The per-packet path end to end — data packets through an INT switch,
// in-place ACK conversion at the receiver, window/rate reaction at the
// sender — allocates nothing: what a 200-packet flow allocates is its
// setup alone. With unbounded retention (CompletedWindow 0, as here)
// that is five objects a flow: the Flow, its send and RTO callbacks, its
// Schedule closure and the CC instance (the receiver's state is a slot
// in its receive-QP slice).
func TestSteadyStateAllocsPerPacketUnderBudget(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	const flowBytes = 200_000 // 200 packets per run
	id := int32(0)
	run := func() {
		id++
		nw.hosts[0].StartFlow(id, nw.hosts[1], flowBytes, 0, nil)
		nw.run(t)
	}
	// Warm pools, FIFOs and the event heap.
	for i := 0; i < 10; i++ {
		run()
	}

	// Three over the five for the QP slices' amortized growth.
	if avg := testing.AllocsPerRun(30, run); avg > 8 {
		t.Fatalf("a 200-packet flow allocates %.1f objects, want its setup only (≤ 8)", avg)
	}
}

// Bounded retention makes the whole flow lifecycle allocation-free: once
// the window has filled, StartFlow, the receiver's first-packet setup,
// completion and eviction all run on recycled objects, IRN's chunk sets
// included.
func TestFlowLifecycleAllocFree(t *testing.T) {
	for _, fc := range []FlowControl{GoBackN, IRN} {
		t.Run(fc.String(), func(t *testing.T) {
			hcfg := hpccConfig()
			hcfg.FlowCtl = fc
			hcfg.CompletedWindow = 16
			nw := buildStar(2, hcfg, fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
			run := func() {
				nw.start(0, 1, 1000, nil)
				nw.run(t)
			}
			for i := 0; i < 40; i++ {
				run()
			}
			if avg := testing.AllocsPerRun(200, run); avg != 0 {
				t.Fatalf("start→complete of a 1-packet flow allocates %.2f objects with CompletedWindow 16, want 0", avg)
			}
			for _, h := range nw.hosts {
				if err := h.AuditFreeLists(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// The receive/ACK side alone: a paced long flow must keep allocations
// flat while ACKs stream back (reusable AckEvent, pooled ACK release).
func TestLongFlowMidstreamAllocFree(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	nw.hosts[0].StartFlow(1, nw.hosts[1], 1<<40, 0, nil) // effectively infinite
	// Past slow start: window and pacer in steady oscillation.
	nw.eng.RunUntil(2 * sim.Millisecond)

	avg := testing.AllocsPerRun(20, func() {
		nw.eng.RunUntil(nw.eng.Now() + 100*sim.Microsecond)
	})
	// ≈ 1100 data packets + 1100 ACKs per 100µs slice at ~95 Gbps.
	if avg > 16 {
		t.Fatalf("midstream slice allocates %.1f allocs per 100µs (≈2200 packets), want ≈ 0", avg)
	}
}
