package fabric

import (
	"testing"

	"hpcc/internal/sim"
)

// BenchmarkSwitchForwarding measures the simulator's per-packet cost
// through a store-and-forward switch (enqueue, dequeue, INT stamp,
// arrival) — the hot path that bounds experiment wall-clock time.
func BenchmarkSwitchForwarding(b *testing.B) {
	eng := sim.NewEngine()
	cfg := SwitchConfig{INTEnabled: true}
	a := &mockHost{id: 1, eng: eng}
	c := &mockHost{id: 2, eng: eng}
	sw := NewSwitch(eng, 100, cfg)
	ap, sa := Connect(eng, a, sw, 0, 0, 100*sim.Gbps, sim.Microsecond)
	a.ports = append(a.ports, ap)
	sw.AttachPort(sa)
	sb, cp := Connect(eng, sw, c, 1, 0, 100*sim.Gbps, sim.Microsecond)
	sw.AttachPort(sb)
	c.ports = append(c.ports, cp)
	sw.InstallRoute(a.id, []int{0})
	sw.InstallRoute(c.id, []int{1})

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ap.Enqueue(intData(1, a.id, c.id, 0, 1064), -1)
		if i%64 == 63 {
			eng.Run() // drain in batches to exercise queues
			c.got = c.got[:0]
		}
	}
	eng.Run()
}
