package fabric

import (
	"testing"

	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// Directed coverage for demand-driven (lazy) port service: a port must
// schedule engine events only while it has frames to move, and the
// same-picosecond races between the deferred kick, user enqueues, and
// PFC pause/resume must resolve to the exact timing the eager
// tx-complete chain produced.

// A drained port leaves nothing in the engine: one packet costs exactly
// one scheduled event (the wire delivery) — serialization is inline at
// enqueue time and no tx-complete or idle-poll event survives the
// drain.
func TestLazyPortNoIdleEvents(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, sim.Gbps, 0)
	a.ports = append(a.ports, ab)

	ab.Enqueue(data(1, 1, 2, 0, 1064), -1)
	if got := eng.Pending(); got != 1 {
		t.Fatalf("pending after enqueue = %d, want 1 (wire delivery only)", got)
	}
	eng.Run()
	if len(b.got) != 1 {
		t.Fatalf("arrivals = %d, want 1", len(b.got))
	}
	if got := eng.Fired(); got != 1 {
		t.Fatalf("events fired = %d, want 1", got)
	}
	if got := eng.Pending(); got != 0 {
		t.Fatalf("pending after drain = %d, want 0", got)
	}
}

// Back-to-back frames through the deferred kick: the second frame's
// serialization must begin exactly at the first's busyUntil — lazy
// service may not open an idle gap on a backlogged port.
func TestLazyKickBackToBack(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, sim.Gbps, 0)
	a.ports = append(a.ports, ab)

	ab.Enqueue(data(1, 1, 2, 0, 1064), -1)
	ab.Enqueue(data(1, 1, 2, 1000, 1064), -1)
	eng.Run()
	ser := sim.Gbps.TxTime(1064)
	if len(b.got) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(b.got))
	}
	if b.got[0].at != ser || b.got[1].at != 2*ser {
		t.Fatalf("arrivals at %v, %v; want %v, %v", b.got[0].at, b.got[1].at, ser, 2*ser)
	}
}

// An enqueue landing at exactly busyUntil on a port whose queue just
// drained must serialize immediately (now >= busyUntil) — no deferred
// kick exists to beat it, and no idle gap may open.
func TestEnqueueAtBusyUntilTie(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, sim.Gbps, 0)
	a.ports = append(a.ports, ab)

	ser := sim.Gbps.TxTime(1064)
	ab.Enqueue(data(1, 1, 2, 0, 1064), -1)
	eng.At(ser, func() { ab.Enqueue(data(1, 1, 2, 1000, 1064), -1) })
	eng.Run()
	if len(b.got) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(b.got))
	}
	if b.got[1].at != 2*ser {
		t.Fatalf("second arrival at %v, want %v (back-to-back)", b.got[1].at, 2*ser)
	}
}

// The redundant-kick cancellation: a kick is armed for a queued frame,
// but an earlier-sequenced event at the same picosecond enqueues and
// serializes first. The armed kick must be cancelled, not left to fire
// mid-frame — frames stay strictly FIFO at exact serialization
// boundaries.
func TestStaleKickCancelledAtTie(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, sim.Gbps, 0)
	a.ports = append(a.ports, ab)

	ser := sim.Gbps.TxTime(1064)
	// Scheduled before the enqueues, so at t=ser this event sequences
	// ahead of the deferred kick armed during the first serialization.
	eng.At(ser, func() { ab.Enqueue(data(1, 1, 2, 2000, 1064), -1) })
	ab.Enqueue(data(1, 1, 2, 0, 1064), -1)
	ab.Enqueue(data(1, 1, 2, 1000, 1064), -1)
	eng.Run()
	if len(b.got) != 3 {
		t.Fatalf("arrivals = %d, want 3", len(b.got))
	}
	for i, want := range []sim.Time{ser, 2 * ser, 3 * ser} {
		if b.got[i].at != want {
			t.Fatalf("arrival %d at %v, want %v (got %v)", i, b.got[i].at, want, b.got)
		}
	}
	// FIFO: the tie-enqueued frame (seq 2000) serializes last.
	if b.got[2].p.Seq != 2000 {
		t.Fatalf("tie-enqueued frame out of order: seqs %d %d %d",
			b.got[0].p.Seq, b.got[1].p.Seq, b.got[2].p.Seq)
	}
}

// A kick that fires into paused data does not serialize and does
// not re-arm; the later resume must restart service itself, even when
// it lands after the port has long gone idle.
func TestPausedKickThenLateResume(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, sim.Gbps, 0)
	a.ports = append(a.ports, ab)

	ser := sim.Gbps.TxTime(1064)
	ab.Enqueue(data(1, 1, 2, 0, 1064), -1)
	ab.Enqueue(data(1, 1, 2, 1000, 1064), -1)
	ab.SetPaused(true) // the kick at ser will find data paused
	eng.At(3*ser, func() { ab.SetPaused(false) })
	eng.Run()
	if len(b.got) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(b.got))
	}
	if b.got[1].at != 4*ser {
		t.Fatalf("post-resume arrival at %v, want %v", b.got[1].at, 4*ser)
	}
	if got := eng.Pending(); got != 0 {
		t.Fatalf("pending after drain = %d, want 0", got)
	}
}

// Resume at exactly busyUntil: SetPaused(false) lands at the same
// picosecond the in-flight frame completes. The resume kick sees
// now >= busyUntil and serializes immediately — no idle gap, no
// duplicate kick left armed.
func TestResumeAtBusyUntilTie(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, sim.Gbps, 0)
	a.ports = append(a.ports, ab)

	ser := sim.Gbps.TxTime(1064)
	ab.Enqueue(data(1, 1, 2, 0, 1064), -1) // serializing until ser
	ab.Enqueue(data(1, 1, 2, 1000, 1064), -1)
	ab.SetPaused(true)
	eng.At(ser, func() { ab.SetPaused(false) })
	eng.Run()
	if len(b.got) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(b.got))
	}
	if b.got[1].at != 2*ser {
		t.Fatalf("resumed arrival at %v, want %v (no idle gap)", b.got[1].at, 2*ser)
	}
	if got := eng.Pending(); got != 0 {
		t.Fatalf("pending after drain = %d, want 0", got)
	}
}

// TotalQueueBytes is a running sum; it must track the frames in both
// class queues, and QueueBytes those in the data queue, through
// enqueues and serializations.
func TestTotalQueueBytesRunningSum(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, sim.Gbps, 0)
	a.ports = append(a.ports, ab)

	check := func(label string) {
		t.Helper()
		queueBytes := func(q *packet.Queue) (n int64) {
			for range q.Len() {
				p, in := q.Pop()
				n += int64(p.Size)
				q.Push(p, in)
			}
			return n
		}
		data, ctrl := queueBytes(&ab.data), queueBytes(&ab.ctrl)
		if ab.QueueBytes() != data || ab.TotalQueueBytes() != data+ctrl {
			t.Fatalf("%s: QueueBytes = %d, TotalQueueBytes = %d; the queues hold %d data and %d control bytes",
				label, ab.QueueBytes(), ab.TotalQueueBytes(), data, ctrl)
		}
	}
	ab.Enqueue(data(1, 1, 2, 0, 1064), -1) // serializes inline, not queued
	ab.Enqueue(data(1, 1, 2, 1000, 1064), -1)
	ab.Enqueue(&packet.Packet{Type: packet.Ack, Src: 1, Dst: 2, Size: 64}, -1)
	check("after enqueues")
	if ab.TotalQueueBytes() == 0 {
		t.Fatal("nothing queued behind the inline serialization")
	}
	eng.Run()
	check("after drain")
	if got := ab.TotalQueueBytes(); got != 0 {
		t.Fatalf("drained TotalQueueBytes = %d, want 0", got)
	}
	if len(b.got) != 3 {
		t.Fatalf("arrivals = %d, want 3", len(b.got))
	}
}

// Two hand-wired links (wire key 0) into one node, two frames arriving
// in the same picosecond: the tie goes to the frame whose serialization
// began first, even though the other wire was idle when its frame was
// sent and this one still had an earlier frame in flight.
func TestZeroKeyWiresTieInSerializationOrder(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	c := &mockHost{id: 3, eng: eng}
	const delay = 10 * sim.Microsecond
	ac, _ := Connect(eng, a, c, 0, 0, sim.Gbps, delay)
	bc, _ := Connect(eng, b, c, 0, 1, sim.Gbps, delay)

	ser := sim.Gbps.TxTime(1064)
	half := sim.Gbps.TxTime(532)
	ac.Enqueue(data(1, 1, 3, 0, 1064), -1)
	ac.Enqueue(data(1, 1, 3, 1000, 1064), -1) // serialized at ser, arrives 2*ser+delay
	// Sent while a's second frame is serializing and its first is still
	// propagating; arrives at 2*ser+delay too.
	eng.At(2*ser-half, func() { bc.Enqueue(data(2, 2, 3, 0, 532), -1) })
	eng.Run()

	if len(c.got) != 3 {
		t.Fatalf("arrivals = %d, want 3", len(c.got))
	}
	if c.got[1].at != 2*ser+delay || c.got[2].at != 2*ser+delay {
		t.Fatalf("arrivals at %v, %v; want both at %v", c.got[1].at, c.got[2].at, 2*ser+delay)
	}
	if c.got[1].p.FlowID != 1 || c.got[2].p.FlowID != 2 {
		t.Fatalf("tie fired flow %d before flow %d, want serialization order (1 then 2)",
			c.got[1].p.FlowID, c.got[2].p.FlowID)
	}
}

// enqueueQueued is Enqueue of a data frame without the cut-through: the
// frame is always pushed onto the data queue and kick pops it back. It
// is the reference the cut-through must be indistinguishable from.
func enqueueQueued(pt *Port, p *packet.Packet, ingress int) {
	pt.data.Push(p, ingress)
	pt.qBytes += int64(p.Size)
	pt.totQBytes += int64(p.Size)
	pt.rxQ += uint64(p.Size)
	if pt.totQBytes > pt.maxQBytes {
		pt.maxQBytes = pt.totQBytes
	}
	pt.kick()
}

// A frame that meets an idle switch egress cuts through, and nothing
// observable may differ from pushing it through the queue: delivery
// time, the INT hop the switch stamps at dequeue, the port's queue
// high-water mark and its packet/byte counters.
func TestCutThroughMatchesQueuedPath(t *testing.T) {
	type outcome struct {
		at                sim.Time
		hop               packet.Hop
		maxQ              int64
		sent, tx, rx, evs uint64
	}
	run := func(enqueue func(*Port, *packet.Packet, int)) outcome {
		eng, a, s, b := lineTopo(t, SwitchConfig{INTEnabled: true}, 100*sim.Gbps, sim.Microsecond)
		// Earlier small frames leave nonzero counters and a high-water
		// mark below the test frame's size.
		for i := 0; i < 3; i++ {
			a.ports[0].Enqueue(data(1, a.id, b.id, int64(i)*100, 200), -1)
		}
		eng.Run()
		eg := s.Ports()[1]
		p := intData(2, a.id, b.id, 0, 1064)
		eng.At(eng.Now()+5*sim.Microsecond, func() { enqueue(eg, p, -1) })
		eng.Run()
		last := b.got[len(b.got)-1]
		if last.p != p || p.INT.NHops != 1 {
			t.Fatalf("last arrival %+v with %d INT hops, want the test frame with 1", last.p, p.INT.NHops)
		}
		return outcome{last.at, p.INT.Hops[0], eg.MaxQueueBytes(), eg.PacketsSent(), eg.TxBytes(), eg.RxQueueBytes(), eng.Fired()}
	}
	direct := run((*Port).Enqueue)
	queued := run(enqueueQueued)
	if direct != queued {
		t.Fatalf("cut-through %+v, queued %+v", direct, queued)
	}
	if direct.hop.QLen != 0 || direct.maxQ != 1064 || direct.sent != 4 || direct.hop.TxBytes != 3*200+1064 {
		t.Fatalf("unexpected outcome %+v", direct)
	}
}

// A data frame must wait in its queue while data is paused, even on an
// empty, idle port, and leave only when data resumes.
func TestCutThroughHoldsPausedPriority(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, sim.Gbps, 0)
	a.ports = append(a.ports, ab)

	ab.SetPaused(true)
	ab.Enqueue(data(1, 1, 2, 0, 1064), -1)
	if ab.QueueLen() != 1 || ab.PacketsSent() != 0 || eng.Pending() != 0 {
		t.Fatalf("paused frame: queued %d, sent %d, pending %d; want 1, 0, 0",
			ab.QueueLen(), ab.PacketsSent(), eng.Pending())
	}
	resume := 5 * sim.Microsecond
	eng.At(resume, func() { ab.SetPaused(false) })
	eng.Run()
	if want := resume + sim.Gbps.TxTime(1064); len(b.got) != 1 || b.got[0].at != want {
		t.Fatalf("arrivals %v, want one at %v", b.got, want)
	}
}

// A frame enqueued while the previous one is still on the wire waits
// for the frame boundary even though the queues are empty.
func TestCutThroughWaitsForFrameEnd(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, sim.Gbps, 0)
	a.ports = append(a.ports, ab)

	ab.Enqueue(data(1, 1, 2, 0, 1064), -1)
	ab.Enqueue(data(1, 1, 2, 1000, 1064), -1)
	if ab.QueueLen() != 1 || ab.PacketsSent() != 1 {
		t.Fatalf("mid-frame enqueue: queued %d, sent %d; want 1, 1", ab.QueueLen(), ab.PacketsSent())
	}
}

// An idle port whose data queue holds only paused frames still serves a
// control frame at once, but through the queue accounting: the
// high-water mark counts the paused backlog too.
func TestCutThroughBehindPausedBacklog(t *testing.T) {
	eng := sim.NewEngine()
	a := &mockHost{id: 1, eng: eng}
	b := &mockHost{id: 2, eng: eng}
	ab, _ := Connect(eng, a, b, 0, 0, sim.Gbps, 0)
	a.ports = append(a.ports, ab)

	ab.SetPaused(true)
	ab.Enqueue(data(1, 1, 2, 0, 1064), -1)
	ab.Enqueue(data(1, 1, 2, 1000, 1064), -1)
	ab.Enqueue(&packet.Packet{Type: packet.Ack, Src: 1, Dst: 2, Size: 64}, -1)
	if ab.PacketsSent() != 1 || ab.TotalQueueBytes() != 2*1064 {
		t.Fatalf("control frame behind a paused backlog: sent %d, %d B queued; want 1, the 2128 B of data",
			ab.PacketsSent(), ab.TotalQueueBytes())
	}
	if got, want := ab.MaxQueueBytes(), int64(2*1064+64); got != want {
		t.Fatalf("MaxQueueBytes = %d, want %d (paused backlog + control frame)", got, want)
	}
}

// The invariant that makes Enqueue's kickArmed guard redundant: a port
// whose queues are empty never has a deferred kick armed. Checked after
// every event of a run with back-to-back frames, a switch queue and PFC
// pause/resume, and after a resume that lands mid-frame on a drained
// port.
func TestEmptyPortHasNoArmedKick(t *testing.T) {
	cfg := SwitchConfig{PFCEnabled: true, BufferBytes: 256 << 10}
	eng, a, s, b := lineTopoAsym(t, cfg, 100*sim.Gbps, 25*sim.Gbps, sim.Microsecond)
	for i := 0; i < 200; i++ {
		a.ports[0].Enqueue(data(1, a.id, b.id, int64(i)*1000, 1064), -1)
	}
	ports := append([]*Port{a.ports[0], b.ports[0]}, s.Ports()...)
	armed := 0
	check := func() {
		t.Helper()
		for _, pt := range ports {
			if pt.totQBytes == 0 && pt.kickArmed {
				t.Fatalf("t=%v: port %d has a kick armed with empty queues", eng.Now(), pt.Index())
			}
			if pt.kickArmed {
				armed++
			}
		}
	}
	for eng.Step() {
		check()
	}
	if armed == 0 || a.ports[0].PauseEvents() == 0 || len(b.got) != 200 {
		t.Fatalf("scenario too tame: %d armed observations, %d pauses, %d/200 delivered",
			armed, a.ports[0].PauseEvents(), len(b.got))
	}

	a.ports[0].Enqueue(data(1, a.id, b.id, 200_000, 1064), -1)
	a.ports[0].SetPaused(true)
	a.ports[0].SetPaused(false)
	check()
}
