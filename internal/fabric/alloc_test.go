package fabric

import (
	"testing"

	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// recyclingSink consumes arrivals back into the pool the test draws
// from, closing the packet lifecycle the way real hosts do.
type recyclingSink struct {
	id   NodeID
	pool *packet.Pool
	got  int
}

func (r *recyclingSink) ID() NodeID { return r.id }
func (r *recyclingSink) OnDequeue(p *packet.Packet, ingress int, from *Port) {
}
func (r *recyclingSink) HandleArrival(p *packet.Packet, in *Port) {
	if p.Type == packet.PFC {
		in.SetPaused(p.PFCPause)
		r.pool.Put(p)
		return
	}
	r.got++
	r.pool.Put(p)
}

// The tentpole guarantee at the fabric layer: once the engine's event
// pool, the port FIFOs and the packet pool are warm, forwarding a
// packet through a store-and-forward INT switch (enqueue, dequeue, INT
// stamp, wire delivery, arrival) allocates nothing.
func TestForwardingHotPathAllocFree(t *testing.T) {
	pool := packet.NewPool()
	eng := sim.NewEngine()
	src := &recyclingSink{id: 1, pool: pool}
	dst := &recyclingSink{id: 2, pool: pool}
	sw := NewSwitch(eng, 100, SwitchConfig{INTEnabled: true, Pool: pool})
	ap, sa := Connect(eng, src, sw, 0, 0, 100*sim.Gbps, sim.Microsecond)
	sw.AttachPort(sa)
	sb, _ := Connect(eng, sw, dst, 1, 0, 100*sim.Gbps, sim.Microsecond)
	sw.AttachPort(sb)
	sw.InstallRoute(src.id, []int{0})
	sw.InstallRoute(dst.id, []int{1})

	const batch = 16
	send := func() {
		for i := 0; i < batch; i++ {
			p := pool.GetINT()
			p.Type = packet.Data
			p.FlowID = 1
			p.Src, p.Dst = 1, 2
			p.Size = 1064
			p.PayloadLen = 1000
			p.Seq = int64(i) * 1000
			ap.Enqueue(p, -1)
		}
		eng.Run()
	}
	// Warm every structure past its growth phase.
	for i := 0; i < 32; i++ {
		send()
	}

	avg := testing.AllocsPerRun(50, send)
	perPkt := avg / batch
	if perPkt > 0.05 {
		t.Fatalf("steady-state forwarding allocates %.3f allocs/packet, want ~0 (pooled packets + single-event wire)", perPkt)
	}
	if dst.got == 0 {
		t.Fatal("no packets forwarded")
	}
	if pool.Recycled() == 0 {
		t.Fatal("pool never recycled a packet")
	}
}
