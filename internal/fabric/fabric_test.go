package fabric

import (
	"testing"
	"testing/quick"

	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

type arrival struct {
	p  *packet.Packet
	at sim.Time
	in *Port
}

// mockHost is a minimal endpoint for fabric tests.
type mockHost struct {
	id    NodeID
	eng   *sim.Engine
	ports []*Port
	got   []arrival
}

func (m *mockHost) ID() NodeID { return m.id }

func (m *mockHost) HandleArrival(p *packet.Packet, in *Port) {
	if p.Type == packet.PFC {
		in.SetPaused(p.PFCPause)
		return
	}
	m.got = append(m.got, arrival{p, m.eng.Now(), in})
}

func (m *mockHost) OnDequeue(p *packet.Packet, ingress int, from *Port) {}

func data(flow int32, src, dst NodeID, seq int64, size int32) *packet.Packet {
	return &packet.Packet{
		Type: packet.Data, FlowID: flow, Src: int32(src), Dst: int32(dst),
		Size: size, Seq: seq, PayloadLen: size - packet.HeaderBytes,
	}
}

// intData is data as a sender whose scheme uses INT emits it: a frame
// from Pool.GetINT, with an empty stack for the switches to stamp.
func intData(flow int32, src, dst NodeID, seq int64, size int32) *packet.Packet {
	p := packet.NewPool().GetINT()
	p.Type, p.FlowID, p.Src, p.Dst = packet.Data, flow, int32(src), int32(dst)
	p.Size, p.Seq, p.PayloadLen = size, seq, size-packet.HeaderBytes
	return p
}

// lineTopo builds A --- S --- B with the given rate/delay and returns
// everything. The switch routes by host ID.
func lineTopo(t testing.TB, cfg SwitchConfig, rate sim.Rate, delay sim.Time) (*sim.Engine, *mockHost, *Switch, *mockHost) {
	t.Helper()
	return lineTopoAsym(t, cfg, rate, rate, delay)
}

// lineTopoAsym is lineTopo with distinct ingress (A->S) and egress
// (S->B) link rates; a faster ingress builds a queue at the switch.
func lineTopoAsym(t testing.TB, cfg SwitchConfig, inRate, outRate sim.Rate, delay sim.Time) (*sim.Engine, *mockHost, *Switch, *mockHost) {
	t.Helper()
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	s := NewSwitch(eng, 100, cfg)

	as, sa := Connect(eng, a, s, 0, 0, inRate, delay)
	a.ports = append(a.ports, as)
	s.AttachPort(sa)
	sb, bs := Connect(eng, s, b, 1, 0, outRate, delay)
	s.AttachPort(sb)
	b.ports = append(b.ports, bs)

	s.InstallRoute(a.id, []int{0})
	s.InstallRoute(b.id, []int{1})
	return eng, a, s, b
}

func TestLinkTiming(t *testing.T) {
	// 1064B at 100Gbps = 85.12ns serialization; two hops and two 1us
	// propagation delays: arrival at 2*(85.12ns) + 2us... but the switch
	// is store-and-forward so the second serialization starts after the
	// first arrival completes.
	eng, a, _, b := lineTopo(t, SwitchConfig{}, 100*sim.Gbps, sim.Microsecond)
	p := data(1, a.id, b.id, 0, 1064)
	a.ports[0].Enqueue(p, -1)
	eng.Run()
	if len(b.got) != 1 {
		t.Fatalf("arrivals = %d, want 1", len(b.got))
	}
	ser := (100 * sim.Gbps).TxTime(1064) // 85.12ns -> exact: 1064*80ps
	want := 2*ser + 2*sim.Microsecond
	if b.got[0].at != want {
		t.Fatalf("arrival at %v, want %v", b.got[0].at, want)
	}
}

func TestStrictPriority(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, sim.Gbps, 0)
	a.ports = append(a.ports, ab)

	// Fill with data, then a control frame: control must jump the line
	// (after the in-flight data packet completes).
	for i := 0; i < 3; i++ {
		ab.Enqueue(data(1, 1, 2, int64(i)*1000, 1064), -1)
	}
	ctrl := &packet.Packet{Type: packet.Ack, FlowID: 9, Src: 1, Dst: 2, Size: 64}
	ab.Enqueue(ctrl, -1)
	eng.Run()
	if len(b.got) != 4 {
		t.Fatalf("arrivals = %d", len(b.got))
	}
	// First data was already serializing; the ACK must be second.
	if b.got[1].p.Type != packet.Ack {
		t.Fatalf("packet order: %v %v %v %v", b.got[0].p, b.got[1].p, b.got[2].p, b.got[3].p)
	}
}

func TestPortPauseResume(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, sim.Gbps, 0)
	a.ports = append(a.ports, ab)

	ab.SetPaused(true)
	ab.Enqueue(data(1, 1, 2, 0, 1064), -1)
	eng.RunUntil(sim.Millisecond)
	if len(b.got) != 0 {
		t.Fatal("data transmitted while paused")
	}
	if ab.PausedFor() != sim.Millisecond {
		t.Fatalf("PausedFor = %v, want 1ms", ab.PausedFor())
	}
	ab.SetPaused(false)
	eng.Run()
	if len(b.got) != 1 {
		t.Fatal("data not transmitted after resume")
	}
	if ab.PauseEvents() != 1 {
		t.Fatalf("PauseEvents = %d, want 1", ab.PauseEvents())
	}
}

func TestPauseDoesNotBlockControl(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, sim.Gbps, 0)
	a.ports = append(a.ports, ab)

	ab.SetPaused(true)
	ab.Enqueue(data(1, 1, 2, 0, 1064), -1)
	ab.Enqueue(&packet.Packet{Type: packet.Ack, Src: 1, Dst: 2, Size: 64}, -1)
	eng.Run()
	if len(b.got) != 1 || b.got[0].p.Type != packet.Ack {
		t.Fatalf("control should pass a data pause; got %d arrivals", len(b.got))
	}
}

func TestSwitchForwardsAndCounts(t *testing.T) {
	eng, a, s, b := lineTopo(t, SwitchConfig{}, 100*sim.Gbps, sim.Microsecond)
	const n = 50
	for i := 0; i < n; i++ {
		a.ports[0].Enqueue(data(1, a.id, b.id, int64(i)*1000, 1064), -1)
	}
	eng.Run()
	if len(b.got) != n {
		t.Fatalf("arrivals = %d, want %d", len(b.got), n)
	}
	if s.Drops() != 0 {
		t.Fatalf("drops = %d", s.Drops())
	}
	if s.BufferUsed() != 0 {
		t.Fatalf("buffer not drained: %d", s.BufferUsed())
	}
	if s.MaxBufferUsed() == 0 {
		t.Fatal("buffer high-water mark never moved")
	}
}

func TestECNMarking(t *testing.T) {
	cfg := SwitchConfig{ECNEnabled: true, KMin: 3000, KMax: 6000}
	eng, a, s, b := lineTopoAsym(t, cfg, 400*sim.Gbps, 100*sim.Gbps, 0)
	// Blast packets so the egress queue exceeds KMax: beyond it every
	// packet must be marked.
	const n = 30
	for i := 0; i < n; i++ {
		a.ports[0].Enqueue(data(1, a.id, b.id, int64(i)*1000, 1064), -1)
	}
	eng.Run()
	marked := 0
	for _, ar := range b.got {
		if ar.p.ECNCE {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no packets marked despite deep queue")
	}
	if s.ECNMarked() != uint64(marked) {
		t.Fatalf("switch counter %d != observed %d", s.ECNMarked(), marked)
	}
	// The first couple of packets see a queue below KMin: never marked.
	if b.got[0].p.ECNCE || b.got[1].p.ECNCE {
		t.Fatal("packets below KMin were marked")
	}
}

func TestINTStamping(t *testing.T) {
	cfg := SwitchConfig{INTEnabled: true}
	// 400G in, 100G out: the egress queue builds while packets pour in.
	eng, a, s, b := lineTopoAsym(t, cfg, 400*sim.Gbps, 100*sim.Gbps, sim.Microsecond)
	const n = 10
	for i := 0; i < n; i++ {
		a.ports[0].Enqueue(intData(1, a.id, b.id, int64(i)*1000, 1064), -1)
	}
	eng.Run()
	if len(b.got) != n {
		t.Fatalf("arrivals = %d", len(b.got))
	}
	var prevTx uint64
	sawQueue := false
	for i, ar := range b.got {
		h := ar.p.INT
		if h.NHops != 1 {
			t.Fatalf("pkt %d: NHops = %d, want 1", i, h.NHops)
		}
		hop := h.Hops[0]
		if hop.B != 100*sim.Gbps {
			t.Fatalf("pkt %d: B = %v", i, hop.B)
		}
		if hop.TxBytes <= prevTx {
			t.Fatalf("pkt %d: txBytes not increasing: %d <= %d", i, hop.TxBytes, prevTx)
		}
		prevTx = hop.TxBytes
		if h.PathID != uint16(s.ID())&0x0fff {
			t.Fatalf("pathID = %x", h.PathID)
		}
		if hop.QLen > 0 {
			sawQueue = true
		}
		if hop.QLen%1064 != 0 {
			t.Fatalf("pkt %d: QLen = %d, not a multiple of the packet size", i, hop.QLen)
		}
	}
	if !sawQueue {
		t.Fatal("no packet ever observed a queue despite the rate mismatch")
	}
	// Figure 5 semantics: the queue a packet reports excludes itself,
	// so the first packet (dequeued into an empty egress) reports 0 and
	// the last packet, which drains the queue, also reports 0.
	if q := b.got[0].p.INT.Hops[0].QLen; q != 0 {
		t.Fatalf("first packet QLen = %d, want 0", q)
	}
	if q := b.got[n-1].p.INT.Hops[0].QLen; q != 0 {
		t.Fatalf("last packet QLen = %d, want 0", q)
	}
}

// A frame without a stack (an INT-free scheme's, or any control frame)
// crosses an INT switch unstamped and still without one.
func TestINTSkipsFramesWithoutStack(t *testing.T) {
	eng, a, _, b := lineTopo(t, SwitchConfig{INTEnabled: true}, 100*sim.Gbps, sim.Microsecond)
	a.ports[0].Enqueue(data(1, a.id, b.id, 0, 1064), -1)
	a.ports[0].Enqueue(intData(1, a.id, b.id, 1000, 1064), -1)
	eng.Run()
	if len(b.got) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(b.got))
	}
	if p := b.got[0].p; p.INT != nil {
		t.Fatalf("plain frame arrived with an INT stack %+v", p.INT)
	}
	if p := b.got[1].p; p.INT == nil || p.INT.NHops != 1 {
		t.Fatalf("stacked frame arrived with %+v, want one hop", p.INT)
	}
}

func TestINTQuantize(t *testing.T) {
	cfg := SwitchConfig{INTEnabled: true, INTQuantize: true}
	eng, a, _, b := lineTopoAsym(t, cfg, 400*sim.Gbps, 100*sim.Gbps, sim.Microsecond)
	for i := 0; i < 5; i++ {
		a.ports[0].Enqueue(intData(1, a.id, b.id, int64(i)*1000, 1064), -1)
	}
	eng.Run()
	for _, ar := range b.got {
		hop := ar.p.INT.Hops[0]
		if hop.TxBytes%packet.TxBytesUnit != 0 {
			t.Fatalf("TxBytes %d not quantized", hop.TxBytes)
		}
		if hop.QLen%packet.QLenUnit != 0 {
			t.Fatalf("QLen %d not quantized", hop.QLen)
		}
		if hop.TS%sim.Nanosecond != 0 {
			t.Fatalf("TS %v not quantized", hop.TS)
		}
	}
}

func TestPFCPauseTriggersUpstream(t *testing.T) {
	// Tiny buffer so the threshold trips quickly. Downstream of the
	// switch is slow (1Gbps) while upstream feeds at 100Gbps, so the
	// egress queue, and hence the ingress accounting, builds.
	cfg := SwitchConfig{BufferBytes: 64 << 10, PFCEnabled: true}
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	s := NewSwitch(eng, 100, cfg)
	as, sa := Connect(eng, a, s, 0, 0, 100*sim.Gbps, sim.Microsecond)
	a.ports = append(a.ports, as)
	s.AttachPort(sa)
	sb, bs := Connect(eng, s, b, 1, 0, sim.Gbps, sim.Microsecond)
	s.AttachPort(sb)
	b.ports = append(b.ports, bs)
	s.InstallRoute(a.id, []int{0})
	s.InstallRoute(b.id, []int{1})

	for i := 0; i < 200; i++ {
		as.Enqueue(data(1, a.id, b.id, int64(i)*1000, 1064), -1)
	}
	eng.Run()
	if s.PFCFramesSent() == 0 {
		t.Fatal("switch never sent a PFC frame")
	}
	if as.PauseEvents() == 0 {
		t.Fatal("upstream port never paused")
	}
	if as.PausedFor() == 0 {
		t.Fatal("no pause time accumulated")
	}
	if s.Drops() != 0 {
		t.Fatalf("drops with PFC enabled: %d", s.Drops())
	}
	if len(b.got) != 200 {
		t.Fatalf("arrivals = %d, want 200 (lossless)", len(b.got))
	}
	if as.Paused() {
		t.Fatal("port still paused after drain")
	}
}

func TestLossyEgressDrop(t *testing.T) {
	cfg := SwitchConfig{BufferBytes: 32 << 10, PFCEnabled: false, LossyEgressAlpha: 1}
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	s := NewSwitch(eng, 100, cfg)
	as, sa := Connect(eng, a, s, 0, 0, 100*sim.Gbps, 0)
	a.ports = append(a.ports, as)
	s.AttachPort(sa)
	sb, bs := Connect(eng, s, b, 1, 0, sim.Gbps, 0)
	s.AttachPort(sb)
	b.ports = append(b.ports, bs)
	s.InstallRoute(a.id, []int{0})
	s.InstallRoute(b.id, []int{1})

	for i := 0; i < 100; i++ {
		as.Enqueue(data(1, a.id, b.id, int64(i)*1000, 1064), -1)
	}
	eng.Run()
	if s.Drops() == 0 {
		t.Fatal("no drops despite overload beyond the dynamic threshold")
	}
	if len(b.got)+int(s.Drops()) != 100 {
		t.Fatalf("conservation: %d arrived + %d dropped != 100", len(b.got), s.Drops())
	}
}

func TestSharedBufferOverflowDrops(t *testing.T) {
	// A fast ingress into a slow egress with a tiny shared buffer and no
	// PFC must tail-drop once the buffer fills.
	cfg := SwitchConfig{BufferBytes: 8 << 10, PFCEnabled: false}
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	s := NewSwitch(eng, 100, cfg)
	as, sa := Connect(eng, a, s, 0, 0, 100*sim.Gbps, 0)
	a.ports = append(a.ports, as)
	s.AttachPort(sa)
	sb, bs := Connect(eng, s, b, 1, 0, sim.Gbps, 0)
	s.AttachPort(sb)
	b.ports = append(b.ports, bs)
	s.InstallRoute(a.id, []int{0})
	s.InstallRoute(b.id, []int{1})
	for i := 0; i < 100; i++ {
		as.Enqueue(data(1, a.id, b.id, int64(i)*1000, 1064), -1)
	}
	eng.Run()
	if s.Drops() == 0 {
		t.Fatal("no drops on shared-buffer overflow")
	}
	if len(b.got)+int(s.Drops()) != 100 {
		t.Fatalf("conservation: %d arrived + %d dropped != 100", len(b.got), s.Drops())
	}
}

func TestECMPDeterministicPerFlow(t *testing.T) {
	p1 := data(7, 1, 2, 0, 1064)
	p2 := data(7, 1, 2, 1000, 1064)
	p3 := data(8, 1, 2, 0, 1064)
	if ecmpHash(p1, 5, 4) != ecmpHash(p2, 5, 4) {
		t.Fatal("same flow hashed to different ports")
	}
	// Different flows should spread (not a hard guarantee for one pair,
	// so check over many flows).
	counts := map[int]int{}
	for f := int32(0); f < 256; f++ {
		p := data(f, 1, 2, 0, 1064)
		counts[ecmpHash(p, 5, 4)]++
	}
	if len(counts) < 4 {
		t.Fatalf("ECMP used only %d of 4 ports over 256 flows", len(counts))
	}
	_ = p3
}

// Property: buffer accounting always returns to zero once the network
// drains, for any random packet pattern.
func TestBufferConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		cfg := SwitchConfig{BufferBytes: 1 << 20}
		eng, a, s, b := lineTopo(t, cfg, 25*sim.Gbps, 100*sim.Nanosecond)
		for i, raw := range sizes {
			if i > 200 {
				break
			}
			size := int32(raw%1400) + 65
			a.ports[0].Enqueue(data(int32(i), a.id, b.id, 0, size), -1)
		}
		eng.Run()
		return s.BufferUsed() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// A packet for a destination the switch has no route to — never
// installed, negative, or beyond the dense table — is dropped, counted
// once and handed back to the pool; a bad custom graph must not index
// out of range.
func TestUnroutableDrops(t *testing.T) {
	pool := packet.NewPool()
	eng, a, s, b := lineTopo(t, SwitchConfig{Pool: pool}, 100*sim.Gbps, 0)
	for i, dst := range []NodeID{0, -1, -1 << 31, 3, 99, 1<<31 - 1} { // the table covers IDs 0..2
		if s.Route(dst) != nil {
			t.Fatalf("Route(%d) = %v, want none", dst, s.Route(dst))
		}
		p := data(1, a.id, dst, 0, 1064)
		a.ports[0].Enqueue(p, -1)
		eng.Run()
		if want := uint64(i + 1); s.Drops() != want || s.RouteErrors() != want {
			t.Fatalf("dst %d: drops = %d, route errors = %d, want %d each", dst, s.Drops(), s.RouteErrors(), want)
		}
		if got := pool.Get(); got != p {
			t.Fatalf("dst %d: dropped packet was not returned to the pool", dst)
		}
	}
	if len(b.got) != 0 {
		t.Fatalf("%d unroutable packets were delivered", len(b.got))
	}
}
