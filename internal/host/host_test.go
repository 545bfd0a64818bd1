package host

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hpcc/internal/cc"
	hpcccc "hpcc/internal/cc/hpcc"
	"hpcc/internal/fabric"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// mockCC is a scriptable algorithm for transport-level tests.
type mockCC struct {
	w    float64
	rate float64
	env  cc.Env

	acks    int
	cnpAt   []sim.Time
	lastEv  cc.AckEvent
	rttSeen []sim.Time
}

func (m *mockCC) Name() string       { return "mock" }
func (m *mockCC) Init(env cc.Env)    { m.env = env }
func (m *mockCC) OnCNP(now sim.Time) { m.cnpAt = append(m.cnpAt, now) }
func (m *mockCC) RateBps() float64   { return m.rate }
func (m *mockCC) WindowBytes() float64 {
	if m.w <= 0 {
		return cc.Unlimited()
	}
	return m.w
}
func (m *mockCC) OnAck(ev *cc.AckEvent) {
	m.acks++
	m.lastEv = *ev
	m.rttSeen = append(m.rttSeen, ev.RTT)
}

// net is a star test network: n hosts around one switch.
type net struct {
	eng    *sim.Engine
	sw     *fabric.Switch
	hosts  []*Host
	nextID int32
}

// buildStar wires n hosts to a single switch with hostRate links and
// the given one-way delay.
func buildStar(n int, hcfg Config, scfg fabric.SwitchConfig, hostRate sim.Rate, delay sim.Time) *net {
	eng := sim.NewEngine()
	sw := fabric.NewSwitch(eng, 1000, scfg)
	nw := &net{eng: eng, sw: sw}
	for i := 0; i < n; i++ {
		h := New(eng, fabric.NodeID(i+1), hcfg)
		hp, sp := fabric.Connect(eng, h, sw, 0, i, hostRate, delay)
		h.AttachPort(hp)
		sw.AttachPort(sp)
		sw.InstallRoute(h.ID(), []int{i})
		nw.hosts = append(nw.hosts, h)
	}
	return nw
}

func (nw *net) start(src, dst int, size int64, onDone func(*Flow)) *Flow {
	nw.nextID++
	return nw.hosts[src].StartFlow(nw.nextID, nw.hosts[dst], size, 0, onDone)
}

const line100 = 100 * sim.Gbps

// idleBound is the virtual time a test may run for. A flow that never
// finishes re-arms its 1 ms RTO forever, so a run until nothing is
// pending would end only at go test's timeout.
const idleBound = 100 * sim.Millisecond

// runIdle fires eng's events until none is pending, for at most
// idleBound of virtual time, and then checks that none is.
func runIdle(t *testing.T, eng *sim.Engine, hosts ...*Host) {
	t.Helper()
	for limit := eng.Now() + idleBound; eng.Now() < limit && eng.Step(); {
	}
	checkIdle(t, eng, hosts...)
}

// checkIdle fails the test if eng has events pending, naming the
// unfinished flows of hosts.
func checkIdle(t *testing.T, eng *sim.Engine, hosts ...*Host) {
	t.Helper()
	if eng.Pending() == 0 {
		return
	}
	var open []string
	for _, h := range hosts {
		for _, f := range h.sendQP {
			if f != nil && f.alive && !f.done {
				open = append(open, fmt.Sprintf("flow %d (node %d → %d, %d of %d B acked, %d retransmits)",
					f.ID, h.ID(), f.dst, f.Acked(), f.size, f.Retransmits()))
			}
		}
	}
	t.Fatalf("at %v, %d events still pending; unfinished: %s", eng.Now(), eng.Pending(), strings.Join(open, ", "))
}

// run is runIdle over the star.
func (nw *net) run(t *testing.T) {
	t.Helper()
	runIdle(t, nw.eng, nw.hosts...)
}

func hpccConfig() Config {
	return Config{
		CC:      hpcccc.New(hpcccc.Config{}),
		INT:     true,
		BaseRTT: 10 * sim.Microsecond,
	}
}

func TestFlowCompletesHPCC(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	var fct sim.Time
	f := nw.start(0, 1, 1<<20, func(f *Flow) { fct = f.FCT() })
	nw.run(t)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if f.Acked() != 1<<20 {
		t.Fatalf("acked = %d, want %d", f.Acked(), 1<<20)
	}
	// Ideal: 1049 packets × 1106 B at 100G ≈ 93 µs serialization plus a
	// few µs of RTT; HPCC paces at ≥ 95% of line. Anything within
	// [90µs, 160µs] is sane.
	if fct < 90*sim.Microsecond || fct > 160*sim.Microsecond {
		t.Fatalf("FCT = %v, expected ≈ 95-120µs", fct)
	}
	if nw.sw.Drops() != 0 {
		t.Fatalf("drops = %d", nw.sw.Drops())
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	// Window of exactly 4 packets: the sender must never have more than
	// 4×1064 unacked wire bytes out.
	mock := &mockCC{w: 4 * 1064, rate: float64(line100)}
	cfg := Config{CC: func() cc.Algorithm { return mock }, BaseRTT: 10 * sim.Microsecond}
	nw := buildStar(2, cfg, fabric.SwitchConfig{}, line100, 10*sim.Microsecond)
	f := nw.start(0, 1, 200_000, nil)

	maxInflight := int64(0)
	var sample func()
	sample = func() {
		if infl := f.inflight(); infl > maxInflight {
			maxInflight = infl
		}
		if !f.Done() {
			nw.eng.After(sim.Microsecond, sample)
		}
	}
	nw.eng.After(0, sample)
	nw.run(t)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if maxInflight > 5*1000 {
		t.Fatalf("inflight reached %d bytes, window is %d", maxInflight, 4*1064)
	}
}

func TestPacingHalvesThroughput(t *testing.T) {
	mock := &mockCC{w: 0, rate: float64(line100) / 2}
	cfg := Config{CC: func() cc.Algorithm { return mock }, BaseRTT: 10 * sim.Microsecond}
	nw := buildStar(2, cfg, fabric.SwitchConfig{}, line100, sim.Microsecond)
	var fct sim.Time
	nw.start(0, 1, 1_000_000, func(f *Flow) { fct = f.FCT() })
	nw.run(t)
	// 1000 packets × 1064 B at 50 Gbps ≈ 170 µs.
	want := (50 * sim.Gbps).TxTime(1_064_000)
	if fct < want || fct > want+20*sim.Microsecond {
		t.Fatalf("FCT = %v, want ≈ %v (paced at half line)", fct, want)
	}
}

func TestRTTMeasurement(t *testing.T) {
	mock := &mockCC{w: 0, rate: float64(line100)}
	cfg := Config{CC: func() cc.Algorithm { return mock }, BaseRTT: 10 * sim.Microsecond}
	// Two 5µs links each way → base RTT 20µs + serialization.
	nw := buildStar(2, cfg, fabric.SwitchConfig{}, line100, 5*sim.Microsecond)
	nw.start(0, 1, 10_000, nil)
	nw.run(t)
	if len(mock.rttSeen) == 0 {
		t.Fatal("no RTT samples")
	}
	first := mock.rttSeen[0]
	if first < 20*sim.Microsecond || first > 22*sim.Microsecond {
		t.Fatalf("RTT = %v, want ≈ 20-21µs", first)
	}
}

func TestAckEventFields(t *testing.T) {
	mock := &mockCC{w: 0, rate: float64(line100)}
	cfg := Config{CC: func() cc.Algorithm { return mock }, INT: true, BaseRTT: 10 * sim.Microsecond}
	nw := buildStar(2, cfg, fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	nw.start(0, 1, 5_000, nil)
	nw.run(t)
	if mock.acks != 5 {
		t.Fatalf("acks = %d, want 5 (one per packet)", mock.acks)
	}
	ev := mock.lastEv
	if ev.AckSeq != 5000 {
		t.Fatalf("final AckSeq = %d", ev.AckSeq)
	}
	if len(ev.Hops) != 1 {
		t.Fatalf("INT hops = %d, want 1", len(ev.Hops))
	}
	if ev.Hops[0].B != line100 {
		t.Fatalf("hop B = %v", ev.Hops[0].B)
	}
}

func TestGoBackNRecovery(t *testing.T) {
	// Overload a 25G egress at 2× line rate with a tiny lossy buffer:
	// drops force NACK-driven rewinds, yet the flow must complete with
	// every byte delivered in order.
	mock := &mockCC{w: 0, rate: float64(50 * sim.Gbps)}
	cfg := Config{CC: func() cc.Algorithm { return mock }, BaseRTT: 10 * sim.Microsecond}
	scfg := fabric.SwitchConfig{BufferBytes: 64 << 10, PFCEnabled: false, LossyEgressAlpha: 1}
	eng := sim.NewEngine()
	sw := fabric.NewSwitch(eng, 1000, scfg)
	a := New(eng, 1, cfg)
	b := New(eng, 2, cfg)
	ap, sa := fabric.Connect(eng, a, sw, 0, 0, 100*sim.Gbps, sim.Microsecond)
	a.AttachPort(ap)
	sw.AttachPort(sa)
	sb, bp := fabric.Connect(eng, sw, b, 1, 0, 25*sim.Gbps, sim.Microsecond)
	sw.AttachPort(sb)
	b.AttachPort(bp)
	sw.InstallRoute(a.ID(), []int{0})
	sw.InstallRoute(b.ID(), []int{1})

	f := a.StartFlow(1, b, 2_000_000, 0, nil)
	runIdle(t, eng, a, b)
	if !f.Done() {
		t.Fatal("flow did not complete despite GBN recovery")
	}
	if sw.Drops() == 0 {
		t.Fatal("test needs drops to exercise recovery")
	}
	if f.Retransmits() == 0 {
		t.Fatal("no retransmissions recorded")
	}
	if f.Acked() != 2_000_000 {
		t.Fatalf("sender saw %d bytes acked, want 2000000", f.Acked())
	}
	// Delivery of the final byte finishes the receiver's QP.
	if n := b.OpenRecvQPs(); n != 0 {
		t.Fatalf("%d receive QPs still open at flow end", n)
	}
}

func TestIRNRecovery(t *testing.T) {
	mock := &mockCC{w: 0, rate: float64(50 * sim.Gbps)}
	cfg := Config{CC: func() cc.Algorithm { return mock }, FlowCtl: IRN, BaseRTT: 10 * sim.Microsecond}
	scfg := fabric.SwitchConfig{BufferBytes: 64 << 10, PFCEnabled: false, LossyEgressAlpha: 1}
	eng := sim.NewEngine()
	sw := fabric.NewSwitch(eng, 1000, scfg)
	a := New(eng, 1, cfg)
	b := New(eng, 2, cfg)
	ap, sa := fabric.Connect(eng, a, sw, 0, 0, 100*sim.Gbps, sim.Microsecond)
	a.AttachPort(ap)
	sw.AttachPort(sa)
	sb, bp := fabric.Connect(eng, sw, b, 1, 0, 25*sim.Gbps, sim.Microsecond)
	sw.AttachPort(sb)
	b.AttachPort(bp)
	sw.InstallRoute(a.ID(), []int{0})
	sw.InstallRoute(b.ID(), []int{1})

	f := a.StartFlow(1, b, 2_000_000, 0, nil)
	runIdle(t, eng, a, b)
	if !f.Done() {
		t.Fatal("flow did not complete despite IRN recovery")
	}
	if f.Retransmits() == 0 {
		t.Fatal("no selective retransmissions recorded")
	}
	if f.Acked() != 2_000_000 {
		t.Fatalf("sender saw %d bytes acked, want 2000000", f.Acked())
	}
	if n := b.OpenRecvQPs(); n != 0 {
		t.Fatalf("%d receive QPs still open at flow end", n)
	}
}

// IRN sends its recovery cursor back to a gap at most once per base RTT
// T: selective ACKs for the same hole at t0, t0 + T/2 and t0 + 3T/2
// requeue it at t0, not at T/2 (the first retransmission may still be in
// flight), and again at 3T/2 (it was lost too).
func TestIRNRequeueThrottle(t *testing.T) {
	const T = 10 * sim.Microsecond
	cfg := Config{CC: func() cc.Algorithm { return &mockCC{rate: float64(10 * sim.Gbps)} }, FlowCtl: IRN, BaseRTT: T}
	// 10 µs per link: a 40 µs round trip keeps ≈ 50 KB unacknowledged.
	nw := buildStar(2, cfg, fabric.SwitchConfig{}, line100, T)
	f := nw.start(0, 1, 1_000_000, nil)
	const t0 = 100 * sim.Microsecond
	nw.eng.RunUntil(t0)
	hole := f.Acked()
	if hole == 0 || f.sndNxt <= hole {
		t.Fatalf("setup: acked %d of %d sent bytes, want a part", hole, f.sndNxt)
	}
	// The receiver holds hole + 10 000 but still waits at the hole.
	sack := &packet.Packet{Type: packet.Ack, AckSeq: hole, Seq: hole + 10_000}
	for _, c := range []struct {
		at      sim.Time
		requeue bool
	}{{t0, true}, {t0 + T/2, false}, {t0 + 3*T/2, true}} {
		f.irnOnAck(sack, c.at)
		seq, payload, rtx := f.nextChunk()
		if got := rtx && seq == hole; got != c.requeue {
			t.Errorf("t0 + %v: requeued %v, want %v", c.at-t0, got, c.requeue)
		}
		if rtx {
			f.emit(c.at, seq, payload, true) // the sender retransmits what was queued
		}
	}
}

// IRN caps inflight bytes at one BDP whatever the CC window allows
// (§4.1): under a window of 4 BDP and a path whose RTT holds 4 BDP,
// sndNxt − sndUna never exceeds max(BDP, one MTU) after any event, and
// reaches the cap, so the cap is what binds.
func TestIRNInflightCappedAtBDP(t *testing.T) {
	const T = 10 * sim.Microsecond
	bdp := line100.BytesPerSec() * T.Seconds()
	mock := &mockCC{w: 4 * bdp, rate: float64(line100)}
	cfg := Config{CC: func() cc.Algorithm { return mock }, FlowCtl: IRN, BaseRTT: T}
	// 10 µs per link: the round trip is four times T.
	nw := buildStar(2, cfg, fabric.SwitchConfig{}, line100, T)
	f := nw.start(0, 1, int64(20*bdp), nil)
	limit := max(int64(bdp), int64(packet.DefaultMTU))
	var peak int64
	for end := nw.eng.Now() + idleBound; nw.eng.Now() < end && nw.eng.Step(); {
		infl := f.inflight()
		if infl > limit {
			t.Fatalf("at %v: inflight %d bytes, want at most %d (one BDP)", nw.eng.Now(), infl, limit)
		}
		peak = max(peak, infl)
	}
	checkIdle(t, nw.eng, nw.hosts...)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if peak < int64(bdp)-int64(packet.DefaultMTU) {
		t.Fatalf("inflight peaked at %d bytes: the one-BDP cap (%v) never bound", peak, bdp)
	}
}

// The CNP rule under continuous marking: the receiver answers the first
// marked frame of a flow, then the first marked frame at least 50 µs
// after its last CNP. With a 25 Gbps bottleneck draining back to back,
// every gap between a flow's CNPs is at least 50 µs and less than 50 µs
// plus one 1064 B frame time (340.48 ns).
func TestCNPGeneration(t *testing.T) {
	mock := &mockCC{rate: float64(line100)}
	cfg := Config{CC: func() cc.Algorithm { return mock }, BaseRTT: 10 * sim.Microsecond}
	// Every data frame is marked: the post-enqueue depth is above KMax.
	scfg := fabric.SwitchConfig{ECNEnabled: true, KMin: 1, KMax: 2}
	eng := sim.NewEngine()
	sw := fabric.NewSwitch(eng, 1000, scfg)
	a := New(eng, 1, cfg)
	b := New(eng, 2, cfg)
	ap, sa := fabric.Connect(eng, a, sw, 0, 0, 100*sim.Gbps, sim.Microsecond)
	a.AttachPort(ap)
	sw.AttachPort(sa)
	sb, bp := fabric.Connect(eng, sw, b, 1, 0, 25*sim.Gbps, sim.Microsecond)
	sw.AttachPort(sb)
	b.AttachPort(bp)
	sw.InstallRoute(a.ID(), []int{0})
	sw.InstallRoute(b.ID(), []int{1})

	f := a.StartFlow(1, b, 3_000_000, 0, nil)
	runIdle(t, eng, a, b)
	if !f.Done() || sw.Drops() != 0 || len(mock.cnpAt) < 10 {
		t.Fatalf("done %v, %d drops, %d CNPs; want done, none, at least 10", f.Done(), sw.Drops(), len(mock.cnpAt))
	}
	const frame = 340_480 * sim.Picosecond
	for i := 1; i < len(mock.cnpAt); i++ {
		if gap := mock.cnpAt[i] - mock.cnpAt[i-1]; gap < 50*sim.Microsecond || gap >= 50*sim.Microsecond+frame {
			t.Fatalf("CNP %d came %v after CNP %d, want in [50µs, 50µs+%v)", i, gap, i-1, frame)
		}
	}
}

func TestSubMTUWindowNoDeadlock(t *testing.T) {
	// A window smaller than one packet must still let a lone packet out
	// (inflight == 0 exemption), or the flow deadlocks.
	mock := &mockCC{w: 100, rate: float64(line100)}
	cfg := Config{CC: func() cc.Algorithm { return mock }, BaseRTT: 10 * sim.Microsecond}
	nw := buildStar(2, cfg, fabric.SwitchConfig{}, line100, sim.Microsecond)
	f := nw.start(0, 1, 10_000, nil)
	nw.run(t)
	if !f.Done() {
		t.Fatal("sub-MTU window deadlocked the flow")
	}
}

func TestPFCPausesHostPort(t *testing.T) {
	// Two senders blast one receiver with PFC on: the switch pauses the
	// host uplinks; nothing is dropped and both flows finish.
	cfg := hpccConfig()
	scfg := fabric.SwitchConfig{BufferBytes: 256 << 10, PFCEnabled: true, INTEnabled: true}
	nw := buildStar(3, cfg, scfg, line100, sim.Microsecond)
	f1 := nw.start(0, 2, 500_000, nil)
	f2 := nw.start(1, 2, 500_000, nil)
	nw.run(t)
	if !f1.Done() || !f2.Done() {
		t.Fatal("incast flows did not complete")
	}
	if nw.sw.Drops() != 0 {
		t.Fatalf("drops = %d with PFC enabled", nw.sw.Drops())
	}
}

func TestMultipleFlowsSharePort(t *testing.T) {
	nw := buildStar(3, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	f1 := nw.start(0, 1, 300_000, nil)
	f2 := nw.start(0, 2, 300_000, nil)
	nw.run(t)
	if !f1.Done() || !f2.Done() {
		t.Fatal("concurrent flows on one NIC did not finish")
	}
}

// Property: on a clean network, flows of any size complete with acked ==
// size under both GBN and IRN.
func TestFlowCompletionProperty(t *testing.T) {
	f := func(sizeRaw uint32, irn bool) bool {
		size := int64(sizeRaw%500_000) + 1
		cfg := hpccConfig()
		if irn {
			cfg.FlowCtl = IRN
		}
		nw := buildStar(2, cfg, fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
		fl := nw.start(0, 1, size, nil)
		nw.run(t)
		return fl.Done() && fl.Acked() >= size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHPCCWindowConvergesNearEta(t *testing.T) {
	// A single long flow through one switch: HPCC should settle with W
	// around η × BDP (±WAI wiggle), i.e. utilization just under line.
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	f := nw.start(0, 1, 1<<40, nil) // effectively infinite
	nw.eng.RunUntil(2 * sim.Millisecond)
	alg := f.Alg().(*hpcccc.HPCC)
	bdp := line100.BytesPerSec() * (10 * sim.Microsecond).Seconds()
	w := alg.WindowBytes()
	if w < 0.80*bdp || w > 1.0*bdp {
		t.Fatalf("steady-state W = %v, want ≈ η×BDP = %v", w, 0.95*bdp)
	}
	if math.IsNaN(alg.Utilization()) {
		t.Fatal("U is NaN")
	}
	_ = packet.DefaultMTU
}
