package experiment

import (
	"runtime"
	"testing"

	"hpcc/internal/sim"
)

// marginalMallocs runs small and then big and returns the heap objects
// allocated per data packet between the two runs. Everything the runs
// share — the fabric build, warming the pools and free lists, the
// result summary — cancels out, so what is left is the per-packet cost
// of the traffic the bigger run adds.
func marginalMallocs(t *testing.T, small, big LoadScenario) float64 {
	t.Helper()
	run := func(s LoadScenario) (mallocs, pkts uint64) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		r := runLoadT(t, s)
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, r.DataPackets
	}
	m0, p0 := run(small)
	m1, p1 := run(big)
	if p1 <= p0 {
		t.Fatalf("the bigger run sent %d data packets, the smaller %d: no margin to measure", p1, p0)
	}
	return (float64(m1) - float64(m0)) / float64(p1-p0)
}

// The end-to-end allocation pin. One fixed-1KB flow is one packet on the
// stream star, so there the margin is the whole flow lifecycle: ≈ 7
// objects a flow when each allocates its Flow, callbacks, CC instance
// and receiver state, ≈ 0 once bounded retention recycles them. The CI
// FatTree's margin is the steady-state forwarding path of long flows
// plus the setup of each extra flow spread over its packets: 0.011
// objects a packet (about a dozen a flow; go1.24, amd64), bounded at
// 0.02, so doubling what a flow's setup allocates, or one object every
// hundred packets, fails it.
func TestMarginalAllocsPerPacket(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 125k flows: skipped in -short")
	}
	stream := func(flows int) LoadScenario {
		s := streamScenario(flows, true)
		s.CompletedWindow = 256
		return s
	}
	if got := marginalMallocs(t, stream(25_000), stream(100_000)); got > 0.5 {
		t.Errorf("stream star: %.3f objects per extra flow of one packet, want ≤ 0.5 — per-flow state is no longer recycled", got)
	}
	fatTree := func(flows int) LoadScenario {
		s := fatTreeLoad(0.5, flows, 1)
		s.Until = 4 * sim.Millisecond // MaxFlows is the cutoff
		return s
	}
	if got := marginalMallocs(t, fatTree(100), fatTree(400)); got > 0.02 {
		t.Errorf("CI FatTree: %.4f objects per extra data packet, want ≤ 0.02 — forwarding or flow setup allocates more", got)
	}
}
