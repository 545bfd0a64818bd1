package host

import (
	"testing"

	"hpcc/internal/fabric"
	"hpcc/internal/sim"
)

// BenchmarkHPCCFlowEndToEnd measures full-stack simulation throughput:
// HPCC flow + INT switch + ACK path, reported as simulated data packets
// per wall-clock benchmark op (1 op = one 100-packet flow).
func BenchmarkHPCCFlowEndToEnd(b *testing.B) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := nw.hosts[0].StartFlow(int32(i+1), nw.hosts[1], 100_000, 0, nil)
		nw.eng.Run()
		if !f.Done() {
			b.Fatal("flow unfinished")
		}
	}
}

// BenchmarkIncast16 measures the §5.4 fixture cost: one 16-to-1 incast
// round of 100 KB per sender.
func BenchmarkIncast16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw := buildStar(17, hpccConfig(), fabric.SwitchConfig{INTEnabled: true, PFCEnabled: true}, line100, sim.Microsecond)
		for s := 0; s < 16; s++ {
			nw.start(s, 16, 100_000, nil)
		}
		nw.eng.Run()
	}
}
