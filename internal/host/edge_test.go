package host

import (
	"testing"

	"hpcc/internal/cc"
	"hpcc/internal/fabric"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

func TestZeroSizeFlowCompletes(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	done := false
	f := nw.start(0, 1, 0, func(*Flow) { done = true })
	nw.run(t)
	if !f.Done() || !done {
		t.Fatal("zero-size flow did not complete")
	}
}

// A control frame finds its flow only by QPN, and only while that QP is
// bound to the flow the frame names: an ACK, NACK or CNP whose QPN now
// belongs to a later flow is ignored, as are frames for unknown flows,
// unissued QPNs and QPN 0.
func TestStaleAckIgnored(t *testing.T) {
	cfg := Config{CC: func() cc.Algorithm { return &mockCC{rate: float64(sim.Gbps)} },
		BaseRTT: 10 * sim.Microsecond, CompletedWindow: 1}
	nw := buildStar(2, cfg, fabric.SwitchConfig{}, line100, sim.Microsecond)
	a := nw.hosts[0]
	old := nw.start(0, 1, 10_000, nil)
	nw.run(t)
	oldID, oldQP := old.ID, old.qp
	nw.start(0, 1, 10_000, nil) // completing it evicts old and frees its QP
	nw.run(t)
	f := nw.start(0, 1, 1_000_000, nil) // 8 ms at 1 Gbps
	if f.qp != oldQP {
		t.Fatalf("setup: the later flow got QP %d, want the freed QP %d", f.qp, oldQP)
	}
	nw.eng.RunUntil(nw.eng.Now() + 100*sim.Microsecond)
	acked, sent := f.Acked(), f.PacketsSent()

	for _, addr := range []struct{ flow, qp int32 }{
		{oldID, oldQP}, {999, oldQP}, {f.ID, 0}, {f.ID, -1}, {f.ID, 1 << 20}, {0, 0},
	} {
		for _, typ := range []packet.Type{packet.Ack, packet.Nack, packet.CNP} {
			a.HandleArrival(&packet.Packet{Type: typ, FlowID: addr.flow, DstQP: addr.qp,
				Size: packet.CtrlBytes, AckSeq: 1_000_000}, a.Ports()[0])
		}
	}
	if f.Done() || f.Acked() != acked || f.PacketsSent() != sent || f.Retransmits() != 0 || len(f.alg.(*mockCC).cnpAt) != 0 {
		t.Fatalf("stale frames reached the later flow: done %v, acked %d → %d, sent %d → %d, %d retransmits, %d CNPs",
			f.Done(), acked, f.Acked(), sent, f.PacketsSent(), f.Retransmits(), len(f.alg.(*mockCC).cnpAt))
	}
	nw.run(t)
	if !f.Done() || f.Retransmits() != 0 {
		t.Fatalf("later flow done %v with %d retransmits, want done with none", f.Done(), f.Retransmits())
	}
}

// A zero-byte flow sends no frame, so it opens no receive QP at its
// destination: a thousand of them leave none open.
func TestZeroByteFlowsOpenNoReceiveQP(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	for i := 0; i < 1000; i++ {
		nw.start(0, 1, 0, nil)
	}
	nw.run(t)
	b := nw.hosts[1]
	if n := b.OpenRecvQPs(); n != 0 {
		t.Fatalf("1000 zero-byte flows left %d receive QPs open", n)
	}
	for _, h := range nw.hosts {
		if err := h.AuditFreeLists(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNackSuppressionOnePerEpisode(t *testing.T) {
	// Feed a receiver an out-of-order burst directly: exactly one NACK
	// per out-of-sequence episode (RoCEv2 behaviour), re-armed only
	// after an in-order arrival.
	eng := sim.NewEngine()
	h := New(eng, 2, Config{CC: func() cc.Algorithm { return &mockCC{rate: 1e9} }, BaseRTT: 10 * sim.Microsecond})
	sink := &countingNode{}
	hp, sp := fabric.Connect(eng, h, sink, 0, 0, line100, 0)
	h.AttachPort(hp)
	sink.port = sp

	qp := h.openRecv(5, 1)
	mk := func(seq int64) *packet.Packet {
		return &packet.Packet{Type: packet.Data, FlowID: 5, DstQP: qp, Src: 1, Dst: 2,
			Size: 1064, Seq: seq, PayloadLen: 1000}
	}
	h.handleData(mk(0), hp) // in order: ACK
	h.handleData(mk(2000), hp)
	h.handleData(mk(3000), hp)
	h.handleData(mk(4000), hp) // three OOS arrivals: one NACK
	runIdle(t, eng, h)
	if sink.nacks != 1 {
		t.Fatalf("NACKs = %d, want 1 (suppressed per episode)", sink.nacks)
	}
	h.handleData(mk(1000), hp) // fills the gap: ACK, re-arms NACK
	h.handleData(mk(5000), hp) // new episode: second NACK
	runIdle(t, eng, h)
	if sink.nacks != 2 {
		t.Fatalf("NACKs = %d, want 2 after a new episode", sink.nacks)
	}
	if sink.acks < 2 {
		t.Fatalf("ACKs = %d, want ≥ 2", sink.acks)
	}
}

// countingNode counts control frames it receives.
type countingNode struct {
	port  *fabric.Port
	acks  int
	nacks int
}

func (c *countingNode) ID() fabric.NodeID { return 1 }
func (c *countingNode) OnDequeue(p *packet.Packet, ingress int, from *fabric.Port) {
}
func (c *countingNode) HandleArrival(p *packet.Packet, in *fabric.Port) {
	switch p.Type {
	case packet.Ack:
		c.acks++
	case packet.Nack:
		c.nacks++
	}
}

// Regression: a duplicate data packet arriving after the flow's last
// byte was delivered (an RTO retransmission racing the final ACK) must
// not resurrect — and then leak — receiver state, nor emit a spurious
// ACK or NACK. The flow's receive QP is freed at finish.
func TestStragglerAfterFlowEndDoesNotResurrectRecvState(t *testing.T) {
	checkStragglerDropped(t, 0)
}

// Exact straggler drop: however many flows finished at the receiver
// since — here 65, so the flow's QPN has been reissued to later flows,
// each finished in turn — a duplicate of a finished flow is dropped, not
// taken for a new flow.
func TestStragglerPastRingIsDropped(t *testing.T) {
	checkStragglerDropped(t, 65)
}

// checkStragglerDropped finishes a 10-packet flow, then later more
// one-packet flows toward the same host, then replays the flow's first
// and last chunks at the receiver: it must send nothing and open
// nothing.
func checkStragglerDropped(t *testing.T, later int) {
	t.Helper()
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	f := nw.start(0, 1, 10_000, nil)
	nw.run(t)
	for i := 0; i < later; i++ {
		nw.start(0, 1, 1000, nil)
		nw.run(t)
	}
	recv := nw.hosts[1]
	if !f.Done() || recv.OpenRecvQPs() != 0 {
		t.Fatalf("setup: flow done %v, %d receive QPs open", f.Done(), recv.OpenRecvQPs())
	}
	sent := recv.Ports()[0].PacketsSent()
	for _, seq := range []int64{0, 9_000} {
		recv.HandleArrival(&packet.Packet{
			Type: packet.Data, FlowID: f.ID, DstQP: f.peerQP, Src: int32(nw.hosts[0].ID()), Dst: int32(recv.ID()),
			Size: 1064, Seq: seq, PayloadLen: 1000, FlowEnd: seq == 9_000,
		}, recv.Ports()[0])
	}
	nw.run(t)
	if n := recv.Ports()[0].PacketsSent() - sent; n != 0 || recv.OpenRecvQPs() != 0 {
		t.Fatalf("stragglers %d finished flows later: %d frames sent, %d receive QPs open; want none",
			later, n, recv.OpenRecvQPs())
	}
	for _, h := range nw.hosts {
		if err := h.AuditFreeLists(); err != nil {
			t.Fatal(err)
		}
	}
}

// A lost tail has no later packet to trigger a NACK or a selective ACK,
// so only the RTO recovers it. The timer ticks every 1 ms from the
// flow's start, and a tick retransmits only once 1 ms has passed since
// the last ACK progress: the tail goes out again at the first tick at
// least 1 ms after the last progress, and at no other time. That tick
// rewinds GBN to the cumulative ACK and counts every unacknowledged chunk
// lost under IRN, so a tail of k lost chunks is resent, k retransmitted
// packets, before the next tick.
func TestTailLossRecoveredByRTO(t *testing.T) {
	for _, c := range []struct {
		name  string
		fc    FlowControl
		start sim.Time
		size  int64
		rate  sim.Rate
		lost  int
	}{
		{"short flow", GoBackN, 0, 10_000, line100, 1},
		{"flow longer than a tick", GoBackN, 300 * sim.Microsecond, 1_000_000, 5 * sim.Gbps, 1},
		{"GBN tail of 3 chunks", GoBackN, 0, 10_000, line100, 3},
		{"IRN tail of 3 chunks", IRN, 0, 10_000, line100, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			cfg := Config{CC: func() cc.Algorithm { return &mockCC{rate: float64(c.rate)} },
				FlowCtl: c.fc, BaseRTT: 10 * sim.Microsecond}
			a := New(eng, 1, cfg)
			b := New(eng, 2, cfg)
			dropper := &tailDropper{eng: eng, dropSeq: c.size - int64(c.lost)*1000, lost: c.lost}
			ap, da := fabric.Connect(eng, a, dropper, 0, 0, line100, sim.Microsecond)
			a.AttachPort(ap)
			dropper.ports = append(dropper.ports, da)
			db, bp := fabric.Connect(eng, dropper, b, 1, 0, line100, sim.Microsecond)
			dropper.ports = append(dropper.ports, db)
			b.AttachPort(bp)

			var f *Flow
			var progress []sim.Time
			eng.At(c.start, func() {
				f = a.StartFlow(1, b, c.size, 0, nil)
				f.OnProgress = func(*Flow, int64) { progress = append(progress, eng.Now()) }
			})
			runIdle(t, eng, a, b)
			if !f.Done() || len(dropper.sent) != 2*c.lost || f.Retransmits() != uint64(c.lost) {
				t.Fatalf("done %v, the %d lost chunks sent at %v, %d retransmits; want done, each sent twice, %d",
					f.Done(), c.lost, dropper.sent, f.Retransmits(), c.lost)
			}
			resent := dropper.sent[c.lost]
			last := progress[0]
			for _, at := range progress {
				if at < resent {
					last = at
				}
			}
			want := c.start + sim.Millisecond
			for want-last < sim.Millisecond {
				want += sim.Millisecond
			}
			if resent != want {
				t.Fatalf("last progress at %v, tail resent at %v; want the first tick (start %v + k·1ms) ≥ 1ms later, %v",
					last, resent, c.start, want)
			}
			if end := dropper.sent[2*c.lost-1]; end >= want+RTO {
				t.Fatalf("tail resent from %v to %v; want every lost chunk resent before the next tick at %v",
					resent, end, want+RTO)
			}
		})
	}
}

// IRN's selective repeat (§5.3) resends only what was lost: with one
// chunk dropped mid-flow and nothing else lost, the flow retransmits
// that chunk exactly once and completes.
func TestIRNRetransmitsDroppedChunkOnce(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{CC: func() cc.Algorithm { return &mockCC{rate: float64(line100)} },
		FlowCtl: IRN, BaseRTT: 5 * sim.Microsecond}
	a := New(eng, 1, cfg)
	b := New(eng, 2, cfg)
	dropper := &tailDropper{eng: eng, dropSeq: 50_000, lost: 1}
	ap, da := fabric.Connect(eng, a, dropper, 0, 0, line100, sim.Microsecond)
	a.AttachPort(ap)
	dropper.ports = append(dropper.ports, da)
	db, bp := fabric.Connect(eng, dropper, b, 1, 0, line100, sim.Microsecond)
	dropper.ports = append(dropper.ports, db)
	b.AttachPort(bp)

	f := a.StartFlow(1, b, 200_000, 0, nil)
	runIdle(t, eng, a, b)
	if dropper.dropped != 1 {
		t.Fatal("setup: the chunk at 50 000 was never sent")
	}
	if !f.Done() || f.Acked() != 200_000 {
		t.Fatalf("flow done %v with %d of 200000 bytes acked", f.Done(), f.Acked())
	}
	if f.Retransmits() != 1 {
		t.Fatalf("retransmits = %d, want 1 (only the dropped chunk)", f.Retransmits())
	}
	if f.FCT() >= RTO {
		t.Fatalf("FCT %v: recovery waited for the RTO instead of the selective ACKs", f.FCT())
	}
}

// IRN never resends data the receiver has acknowledged. A hole requeued
// while its retransmission is in flight is skipped once the cumulative
// ACK that fills it arrives, even if the pacer has not sent it yet. The
// path's round trip (≈ 20 µs) exceeds 1.5 T, so the selective ACKs for
// frames sent at line rate just before the retransmission arrive after
// the throttle window and requeue the hole; the mock then cuts its rate,
// as a CC would on loss, to frames more than a round trip apart, so the
// requeued hole is still unsent when the retransmission's ACK arrives.
func TestIRNNeverResendsAckedData(t *testing.T) {
	const T = 10 * sim.Microsecond
	eng := sim.NewEngine()
	mock := &mockCC{rate: float64(line100)}
	cfg := Config{CC: func() cc.Algorithm { return mock }, FlowCtl: IRN, BaseRTT: T}
	a := New(eng, 1, cfg)
	b := New(eng, 2, cfg)
	// ackedAtSend holds the sender's Acked() when each data frame left,
	// in send order, which the FIFO link keeps.
	var ackedAtSend []int64
	var stale []int64
	w := &dataWatch{tailDropper: tailDropper{eng: eng, dropSeq: 50_000, lost: 1}, onData: func(p *packet.Packet) {
		if p.Seq < ackedAtSend[0] {
			stale = append(stale, p.Seq)
		}
		ackedAtSend = ackedAtSend[1:]
	}}
	ap, da := fabric.Connect(eng, a, w, 0, 0, line100, 5*sim.Microsecond)
	a.AttachPort(ap)
	w.ports = append(w.ports, da)
	db, bp := fabric.Connect(eng, w, b, 1, 0, line100, 5*sim.Microsecond)
	w.ports = append(w.ports, db)
	b.AttachPort(bp)

	f := a.StartFlow(1, b, 300_000, 0, nil)
	for sent, limit := uint64(0), eng.Now()+idleBound; ; {
		// An event that advances Acked() does so before it sends.
		for ; sent < f.PacketsSent(); sent++ {
			ackedAtSend = append(ackedAtSend, f.Acked())
		}
		if f.Retransmits() > 0 {
			mock.rate = 0.3e9 // 1064 B frames 28.4 µs apart
		}
		if eng.Now() >= limit || !eng.Step() {
			break
		}
	}
	checkIdle(t, eng, a, b)
	if !f.Done() || len(w.sent) < 2 {
		t.Fatalf("setup: done %v, the dropped chunk sent %d times", f.Done(), len(w.sent))
	}
	if len(stale) > 0 {
		t.Fatalf("data frames at %v left the sender below its cumulative ACK", stale)
	}
}

// dataWatch is a tailDropper that shows every data frame to onData
// before forwarding or dropping it.
type dataWatch struct {
	tailDropper
	onData func(p *packet.Packet)
}

func (w *dataWatch) HandleArrival(p *packet.Packet, in *fabric.Port) {
	if p.Type == packet.Data {
		w.onData(p)
	}
	w.tailDropper.HandleArrival(p, in)
}

// tailDropper forwards between its two ports, dropping the first copy
// of each of the lost data packets from Seq dropSeq on (1000-byte
// chunks, sent first in order). sent records the send time of every
// copy of those packets.
type tailDropper struct {
	eng     *sim.Engine
	ports   []*fabric.Port
	dropSeq int64
	lost    int
	dropped int
	sent    []sim.Time
}

func (d *tailDropper) ID() fabric.NodeID { return 100 }
func (d *tailDropper) OnDequeue(p *packet.Packet, ingress int, from *fabric.Port) {
}
func (d *tailDropper) HandleArrival(p *packet.Packet, in *fabric.Port) {
	if p.Type == packet.Data && p.Seq >= d.dropSeq && p.Seq < d.dropSeq+int64(d.lost)*1000 {
		d.sent = append(d.sent, p.SendTS)
		if p.Seq == d.dropSeq+int64(d.dropped)*1000 {
			d.dropped++
			return
		}
	}
	out := d.ports[0]
	if in == d.ports[0] {
		out = d.ports[1]
	}
	out.Enqueue(p, -1)
}

func TestHPCCMultiHopPicksBottleneck(t *testing.T) {
	// Two hops: first idle, second saturated. HPCC must react to the
	// max-U hop (the second).
	h := hpccAlg(t)
	ack := func(seq, nxt int64, ts sim.Time, tx1, tx2 uint64, q2 int64) *cc.AckEvent {
		return &cc.AckEvent{
			AckSeq: seq, SndNxt: nxt,
			Hops: []packet.Hop{
				{B: line100, TS: ts, TxBytes: tx1, QLen: 0},
				{B: line100, TS: ts, TxBytes: tx2, QLen: q2},
			},
			PathID: 0x0f0,
		}
	}
	h.OnAck(ack(1000, 1_000_000, 0, 0, 0, 125_000))
	h.OnAck(ack(2000, 1_001_000, 10*sim.Microsecond, 12_500 /* 10% */, 125_000 /* 100% */, 125_000))
	// Bottleneck hop: u = 1 + 1 = 2 ⇒ window halves (≈ η/2 × BDP).
	w := h.WindowBytes()
	if w > 70_000 || w < 50_000 {
		t.Fatalf("W = %v, want ≈ 59.4K (reacting to the bottleneck hop)", w)
	}
}

func hpccAlg(t *testing.T) cc.Algorithm {
	t.Helper()
	cfg := hpccConfig()
	alg := cfg.CC()
	alg.Init(cc.Env{
		Now:      func() sim.Time { return 0 },
		Schedule: func(d sim.Time, fn func()) {},
		LineRate: line100,
		BaseRTT:  10 * sim.Microsecond,
		MTU:      1000,
	})
	return alg
}
