package fabric

import (
	"math/rand"
	"testing"

	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// Property: the control frames of one flow reach its endpoint in the
// order they were sent, whatever the data class does. Every frame of a
// flow hashes onto one ECMP path (the hash reads Src, Dst and FlowID
// only), and the control class is a FIFO that is never paused or
// dropped. The host's loss recovery rests on this: a sender sees its
// cumulative ACKs in order (host.Flow). Four parallel links of
// different delays join two switches, a data flood overflows the data
// queues (PFC off: they drop; PFC on: they pause), and ACK-sized and
// NACK-sized control frames of six flows, interleaved at random and in
// bursts, must each arrive in send order.
func TestControlFramesOfAFlowArriveInOrder(t *testing.T) {
	for _, pfc := range []bool{false, true} {
		for seed := int64(1); seed <= 10; seed++ {
			checkControlOrder(t, pfc, seed)
		}
	}
}

func checkControlOrder(t *testing.T, pfc bool, seed int64) {
	t.Helper()
	const flows = 6
	eng := sim.NewEngine()
	cfg := SwitchConfig{BufferBytes: 64 << 10, PFCEnabled: pfc}
	if !pfc {
		cfg.LossyEgressAlpha = 1
	}
	src := &mockHost{id: 1, eng: eng}
	dst := &mockHost{id: 2, eng: eng}
	a := NewSwitch(eng, 10, cfg)
	b := NewSwitch(eng, 11, cfg)
	sa, as := Connect(eng, src, a, 0, 0, 100*sim.Gbps, sim.Microsecond)
	src.ports = append(src.ports, sa)
	a.AttachPort(as)
	var uplinks []int
	for i, delay := range []sim.Time{100, 400, 900, 1600} {
		ab, ba := Connect(eng, a, b, i+1, i, 100*sim.Gbps, delay*sim.Nanosecond)
		a.AttachPort(ab)
		b.AttachPort(ba)
		uplinks = append(uplinks, i+1)
	}
	bd, db := Connect(eng, b, dst, 4, 0, 10*sim.Gbps, sim.Microsecond)
	b.AttachPort(bd)
	dst.ports = append(dst.ports, db)
	a.InstallRoute(dst.id, uplinks)
	b.InstallRoute(dst.id, []int{4})

	// The flood: 400 data frames of eight flows at once, ten times what
	// the 10 Gbps last hop drains while the control frames are sent.
	for i := 0; i < 400; i++ {
		sa.Enqueue(data(int32(100+i%8), src.id, dst.id, int64(i), 1064), -1)
	}
	rng := rand.New(rand.NewSource(seed))
	var sent [flows + 1]int64
	for k := 0; k < 300; k++ {
		// 40 instants 500 ns apart: several frames share each one.
		at := sim.Time(rng.Intn(40)) * 500 * sim.Nanosecond
		flow := int32(1 + rng.Intn(flows))
		typ, size := packet.Ack, int32(packet.AckBytes+packet.INTOverhead)
		if rng.Intn(2) == 0 {
			typ, size = packet.Nack, packet.CtrlBytes
		}
		eng.At(at, func() {
			sent[flow]++
			sa.Enqueue(&packet.Packet{Type: typ, FlowID: flow, Src: int32(src.id), Dst: int32(dst.id),
				Size: size, Seq: sent[flow], AckSeq: 1000 * sent[flow]}, -1)
		})
	}
	eng.Run()

	drops := a.Drops() + b.Drops()
	paused := sa.PausedFor()
	switch {
	case !pfc && drops == 0:
		t.Fatalf("seed %d, PFC off: the flood dropped nothing", seed)
	case pfc && paused == 0:
		t.Fatalf("seed %d, PFC on: the flood paused nothing", seed)
	}
	var got [flows + 1]int64
	for _, r := range dst.got {
		if r.p.Type == packet.Data {
			continue
		}
		f := r.p.FlowID
		if got[f]++; r.p.Seq != got[f] {
			t.Fatalf("seed %d, PFC %v: flow %d's control frame %d arrived as its frame %d (%v at %v)",
				seed, pfc, f, r.p.Seq, got[f], r.p.Type, r.at)
		}
	}
	if got != sent {
		t.Fatalf("seed %d, PFC %v: control frames arrived per flow %v, sent %v", seed, pfc, got[1:], sent[1:])
	}
}
