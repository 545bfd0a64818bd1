package experiment

import (
	"runtime"
	"testing"

	"hpcc/internal/host"
	"hpcc/internal/sim"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// marginalMallocs runs small and then big and returns the heap objects
// and bytes allocated per data packet between the two runs. Everything
// the runs share — the fabric build, warming the pools and free lists,
// the result summary — cancels out, so what is left is the per-packet
// cost of the traffic the bigger run adds.
func marginalMallocs(t *testing.T, small, big LoadScenario) (objects, bytes float64) {
	t.Helper()
	run := func(s LoadScenario) (mallocs, alloc, pkts uint64) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		r := runLoadT(t, s)
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, r.DataPackets
	}
	m0, b0, p0 := run(small)
	m1, b1, p1 := run(big)
	if p1 <= p0 {
		t.Fatalf("the bigger run sent %d data packets, the smaller %d: no margin to measure", p1, p0)
	}
	n := float64(p1 - p0)
	return (float64(m1) - float64(m0)) / n, (float64(b1) - float64(b0)) / n
}

// The end-to-end allocation pin. One fixed-1KB flow is one packet on the
// stream star, so there the margin is the whole flow lifecycle: ≈ 7
// objects a flow when each allocates its Flow, callbacks, CC instance
// and receiver state, ≈ 0 once bounded retention recycles them. The CI
// FatTree's margin is the steady-state forwarding path of long flows
// plus the setup of each extra flow spread over its packets: 0.0056
// objects a packet (go1.24, amd64), bounded at 0.01, so doubling what a
// flow's setup allocates, or one object every hundred packets, fails
// it; allocating each new frame and event on its own, as free lists
// without chunks do, read 0.0106. The lossy FatTree (DCQCN, go-back-N, no
// PFC: deep queues, drops and retransmissions) grows its pools with the
// extra traffic: 0.020 objects a packet, bounded at 0.04; frames carved
// one at a time and append-grown port queues read 0.116. Its heap bytes
// per extra packet are bounded at 16: 9.4 B with port queues linked
// through their frames, 25.0 B with a ring per port queue that doubles
// and leaves the old one as garbage.
func TestMarginalAllocsPerPacket(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 125k flows: skipped in -short")
	}
	stream := func(flows int) LoadScenario {
		s := streamScenario(flows, true)
		s.CompletedWindow = 256
		return s
	}
	if got, _ := marginalMallocs(t, stream(25_000), stream(100_000)); got > 0.5 {
		t.Errorf("stream star: %.3f objects per extra flow of one packet, want ≤ 0.5 — per-flow state is no longer recycled", got)
	}
	fatTree := func(flows int) LoadScenario {
		s := fatTreeLoad(0.5, flows, 1)
		s.Until = 4 * sim.Millisecond // MaxFlows is the cutoff
		return s
	}
	if got, _ := marginalMallocs(t, fatTree(100), fatTree(400)); got > 0.01 {
		t.Errorf("CI FatTree: %.4f objects per extra data packet, want ≤ 0.01 — forwarding or flow setup allocates more", got)
	}
	fat := topology.ScaledFatTree()
	lossy := func(until sim.Time) LoadScenario {
		return LoadScenario{
			Scheme: ByNameMust("dcqcn"),
			Topo:   FatTreeTopo(fat),
			Traffic: []workload.Generator{
				workload.PoissonSpec{CDF: workload.FBHadoop(), Load: 0.3},
				workload.IncastSpec{FanIn: 8, Size: 500_000, LoadFrac: 0.02},
			},
			MaxFlows:    20_000, // Until is the cutoff
			Until:       until,
			Drain:       40 * sim.Millisecond,
			FlowCtl:     host.GoBackN,
			Seed:        1,
			BufferBytes: BufferFor(fat.NumHosts()),
		}
	}
	got, bytes := marginalMallocs(t, lossy(500*sim.Microsecond), lossy(2*sim.Millisecond))
	if got > 0.04 {
		t.Errorf("lossy FatTree: %.4f objects per extra data packet, want ≤ 0.04 — deep queues or drops allocate frames again", got)
	}
	if bytes > 16 {
		t.Errorf("lossy FatTree: %.2f heap bytes per extra data packet, want ≤ 16 — port queues grow storage of their own again", bytes)
	}
}
