package fabric

import (
	"testing"

	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// stallingHost emulates Case-1 of the paper (§1): after receiving a few
// packets it starts sending PFC pause frames indefinitely — "a vendor
// bug which caused the switch to keep sending PFC pause frames
// indefinitely" — and never resumes.
type stallingHost struct {
	mockHost
	stallAfter int
	stalled    bool
}

func (s *stallingHost) HandleArrival(p *packet.Packet, in *Port) {
	s.mockHost.HandleArrival(p, in)
	if !s.stalled && len(s.got) >= s.stallAfter {
		s.stalled = true
		in.Enqueue(&packet.Packet{
			Type: packet.PFC, Size: packet.CtrlBytes, PFCPause: true,
		}, -1)
	}
}

// §1 Case-1 and §2.2: PFC pauses propagate along a cyclic buffer
// dependency and freeze the fabric. Three switches in a ring forward
// each host's burst two hops clockwise; one buggy receiver stalls
// (pausing its access link forever), buffers fill with transit traffic
// that cannot move, every switch pauses its upstream, and the whole
// ring deadlocks — no forward progress ever again.
func TestPFCStormDeadlockCycle(t *testing.T) {
	eng := sim.NewEngine()
	cfg := SwitchConfig{
		// Small enough that pause thresholds trip immediately, with
		// headroom for the PFC reaction skid (in-flight bytes between
		// sending a pause and the upstream stopping).
		BufferBytes: 96 << 10,
		PFCEnabled:  true,
	}
	mk := func(id NodeID) *Switch { return NewSwitch(eng, id, cfg) }
	s := []*Switch{mk(10), mk(11), mk(12)}
	hosts := make([]*stallingHost, 3)
	var hostPorts []*Port

	// Port 0 of each switch: its local host. Ports 1 and 2: ring links
	// to the next and previous switch.
	rate := 100 * sim.Gbps
	delay := 200 * sim.Nanosecond
	for i := range s {
		hosts[i] = &stallingHost{mockHost: mockHost{id: NodeID(i + 1), eng: eng}, stallAfter: 5}
		hp, sp := Connect(eng, hosts[i], s[i], 0, 0, rate, delay)
		hosts[i].ports = append(hosts[i].ports, hp)
		s[i].AttachPort(sp)
		hostPorts = append(hostPorts, hp)
	}
	for i := range s {
		next := (i + 1) % 3
		a, b := Connect(eng, s[i], s[next], len(s[i].Ports()), len(s[next].Ports()), rate, delay)
		s[i].AttachPort(a)
		s[next].AttachPort(b)
	}
	// Routing: host i's traffic targets host (i+2)%3, forwarded
	// clockwise (the long way) so every ring link carries transit.
	for i := range s {
		dst := hosts[(i+2)%3].id
		s[i].InstallRoute(dst, []int{1})
		s[(i+1)%3].InstallRoute(dst, []int{1})
		s[(i+2)%3].InstallRoute(dst, []int{0})
	}

	// Each host blasts a burst at its two-hops-away destination.
	for i := range hosts {
		dst := hosts[(i+2)%3].id
		for k := 0; k < 120; k++ {
			hostPorts[i].Enqueue(&packet.Packet{
				Type: packet.Data, FlowID: int32(i), Src: int32(hosts[i].id), Dst: int32(dst),
				Size: 1064, Seq: int64(k) * 1000, PayloadLen: 1000,
			}, -1)
		}
	}
	eng.RunUntil(5 * sim.Millisecond)

	// Deadlock signature: the pause cycle closed on the ring...
	pausedRings := 0
	for i := range s {
		for _, p := range s[i].Ports() {
			if p.Index() != 0 && p.Paused() {
				pausedRings++
			}
		}
	}
	if pausedRings < 3 {
		t.Fatalf("paused ring transmitters = %d, want the full cycle", pausedRings)
	}
	// ... while traffic is stuck in the fabric and stays stuck.
	var stuck int64
	for i := range s {
		stuck += s[i].BufferUsed()
	}
	if stuck == 0 {
		t.Fatal("no traffic stuck despite the pause cycle")
	}
	before := stuck
	eng.RunUntil(10 * sim.Millisecond)
	stuck = 0
	for i := range s {
		stuck += s[i].BufferUsed()
	}
	if stuck != before {
		t.Fatalf("buffered bytes changed %d -> %d; a true deadlock makes no progress", before, stuck)
	}
	// And receivers stopped short of the offered load.
	for i, h := range hosts {
		if len(h.got) == 120 {
			t.Fatalf("host %d received everything; no deadlock", i)
		}
	}
	// PFC kept the freeze lossless — the pathology is stalling, not
	// drops (that is exactly why the paper's operators fear it).
	for i := range s {
		if s[i].Drops() != 0 {
			t.Fatalf("switch %d dropped %d packets; PFC should be lossless", i, s[i].Drops())
		}
	}
}
