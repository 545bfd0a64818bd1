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
	nw.eng.Run()
	if !f.Done() || !done {
		t.Fatal("zero-size flow did not complete")
	}
}

func TestStaleAckIgnored(t *testing.T) {
	// ACKs for unknown or completed flows must be dropped silently.
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	f := nw.start(0, 1, 10_000, nil)
	nw.eng.Run()
	if !f.Done() {
		t.Fatal("setup: flow unfinished")
	}
	stale := &packet.Packet{Type: packet.Ack, FlowID: f.ID, Src: 2, Dst: 1, Prio: fabric.PrioCtrl, Size: 64, AckSeq: 99}
	nw.hosts[0].HandleArrival(stale, nw.hosts[0].Ports()[0])
	unknown := &packet.Packet{Type: packet.Ack, FlowID: 999, Src: 2, Dst: 1, Prio: fabric.PrioCtrl, Size: 64}
	nw.hosts[0].HandleArrival(unknown, nw.hosts[0].Ports()[0])
	// Also NACK and CNP for unknown flows.
	nw.hosts[0].HandleArrival(&packet.Packet{Type: packet.Nack, FlowID: 999, Size: 64}, nw.hosts[0].Ports()[0])
	nw.hosts[0].HandleArrival(&packet.Packet{Type: packet.CNP, FlowID: 999, Size: 64}, nw.hosts[0].Ports()[0])
}

func TestDuplicateFlowIDPanics(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	nw.hosts[0].StartFlow(42, nw.hosts[1].ID(), 1000, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate flow id did not panic")
		}
	}()
	nw.hosts[0].StartFlow(42, nw.hosts[1].ID(), 1000, 0, nil)
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

	mk := func(seq int64) *packet.Packet {
		return &packet.Packet{Type: packet.Data, FlowID: 5, Src: 1, Dst: 2, Prio: fabric.PrioData,
			Size: 1064, Seq: seq, PayloadLen: 1000}
	}
	h.handleData(mk(0), hp) // in order: ACK
	h.handleData(mk(2000), hp)
	h.handleData(mk(3000), hp)
	h.handleData(mk(4000), hp) // three OOS arrivals: one NACK
	eng.Run()
	if sink.nacks != 1 {
		t.Fatalf("NACKs = %d, want 1 (suppressed per episode)", sink.nacks)
	}
	h.handleData(mk(1000), hp) // fills the gap: ACK, re-arms NACK
	h.handleData(mk(5000), hp) // new episode: second NACK
	eng.Run()
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

// Regression: a duplicate data packet arriving after the flow's
// receiver state was freed (an RTO retransmission racing the final ACK)
// must not resurrect — and then leak — a recvState, nor emit a spurious
// NACK.
func TestStragglerAfterFlowEndDoesNotResurrectRecvState(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	f := nw.start(0, 1, 10_000, nil)
	nw.eng.Run()
	if !f.Done() {
		t.Fatal("setup: flow unfinished")
	}
	recv := nw.hosts[1]
	if recv.recv[f.ID] != nil {
		t.Fatal("setup: receiver state not freed at flow end")
	}
	// A straggler duplicate of the flow's last chunk shows up late.
	straggler := &packet.Packet{
		Type: packet.Data, FlowID: f.ID, Src: int32(nw.hosts[0].ID()), Dst: int32(recv.ID()),
		Prio: fabric.PrioData, Size: 1064, Seq: 9_000, PayloadLen: 1000, FlowEnd: true,
	}
	recv.handleData(straggler, recv.Ports()[0])
	nw.eng.Run()
	if recv.recv[f.ID] != nil {
		t.Fatalf("straggler resurrected receiver state: %+v", recv.recv[f.ID])
	}
	// Far beyond the completed-flow ring, resurrection is allowed (and
	// harmless); the ring only needs to cover in-flight stragglers.
}

// A lost tail has no later packet to trigger a NACK, so only the RTO
// recovers it. The timer ticks every 1 ms from the flow's start, and a
// tick retransmits only once 1 ms has passed since the last ACK
// progress: the tail goes out again at the first tick at least 1 ms
// after the last progress, and at no other time.
func TestTailLossRecoveredByRTO(t *testing.T) {
	for _, c := range []struct {
		name  string
		start sim.Time
		size  int64
		rate  sim.Rate
	}{
		{"short flow", 0, 10_000, line100},
		{"flow longer than a tick", 300 * sim.Microsecond, 1_000_000, 5 * sim.Gbps},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			cfg := Config{CC: func() cc.Algorithm { return &mockCC{rate: float64(c.rate)} },
				BaseRTT: 10 * sim.Microsecond}
			a := New(eng, 1, cfg)
			b := New(eng, 2, cfg)
			dropper := &tailDropper{eng: eng, dropSeq: c.size - 1000}
			ap, da := fabric.Connect(eng, a, dropper, 0, 0, line100, sim.Microsecond)
			a.AttachPort(ap)
			dropper.ports = append(dropper.ports, da)
			db, bp := fabric.Connect(eng, dropper, b, 1, 0, line100, sim.Microsecond)
			dropper.ports = append(dropper.ports, db)
			b.AttachPort(bp)

			var f *Flow
			var progress []sim.Time
			eng.At(c.start, func() {
				f = a.StartFlow(1, b.ID(), c.size, 0, nil)
				f.OnProgress = func(*Flow, int64) { progress = append(progress, eng.Now()) }
			})
			eng.Run()
			if !f.Done() || len(dropper.sent) != 2 || f.Retransmits() != 1 {
				t.Fatalf("done %v, the lost chunk sent at %v, %d retransmits; want done, sent twice, 1",
					f.Done(), dropper.sent, f.Retransmits())
			}
			resent := dropper.sent[1]
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
	dropper := &tailDropper{eng: eng, dropSeq: 50_000}
	ap, da := fabric.Connect(eng, a, dropper, 0, 0, line100, sim.Microsecond)
	a.AttachPort(ap)
	dropper.ports = append(dropper.ports, da)
	db, bp := fabric.Connect(eng, dropper, b, 1, 0, line100, sim.Microsecond)
	dropper.ports = append(dropper.ports, db)
	b.AttachPort(bp)

	f := a.StartFlow(1, b.ID(), 200_000, 0, nil)
	eng.Run()
	if !dropper.dropped {
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

// tailDropper forwards between its two ports, dropping the data packet
// with Seq == dropSeq exactly once. sent records the send time of every
// copy of that packet.
type tailDropper struct {
	eng     *sim.Engine
	ports   []*fabric.Port
	dropSeq int64
	dropped bool
	sent    []sim.Time
}

func (d *tailDropper) ID() fabric.NodeID { return 100 }
func (d *tailDropper) OnDequeue(p *packet.Packet, ingress int, from *fabric.Port) {
}
func (d *tailDropper) HandleArrival(p *packet.Packet, in *fabric.Port) {
	if p.Type == packet.Data && p.Seq == d.dropSeq {
		d.sent = append(d.sent, p.SendTS)
		if !d.dropped {
			d.dropped = true
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
