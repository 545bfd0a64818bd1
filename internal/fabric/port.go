package fabric

import (
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// Port is one direction of a duplex link: the transmitter owned by a
// node. It serializes the frames of two classes onto the link: control
// frames first and never paused, then data frames, which a PFC pause
// holds. It keeps the counters INT exposes (cumulative tx bytes) plus
// pause-time statistics.
type Port struct {
	eng   *sim.Engine
	owner Node
	peer  Node
	// peerPort is the reverse-direction port at the peer. An arriving
	// packet is delivered as peer.HandleArrival(p, peerPort), so the
	// receiver can identify its ingress and reach back upstream (PFC).
	peerPort *Port

	index   int // position in owner's port list
	rate    sim.Rate
	perByte sim.Time // rate.PsPerByte(), the serialization time of one byte
	delay   sim.Time

	// wireKey is the directed link's build-time structural ID — the
	// canonical rank class of this wire's delivery events (see
	// sim.Event.Before). topology.Builder assigns keys in Link order, so
	// simultaneous deliveries into one node fire in an order derivable
	// from the topology alone.
	// Zero (hand-wired fabrics) falls back to scheduling order, which for
	// a delivery is serialization order: of two frames on key-0 wires that
	// arrive in the same picosecond, the one whose serialization began
	// first arrives first (TestZeroKeyWiresTieInSerializationOrder).
	// topology.Builder, the only non-test caller of Connect, always
	// assigns non-zero keys.
	wireKey uint64

	// The two class queues, each FIFO. qBytes counts the data class
	// only; totQBytes counts both, so Enqueue's cut-through test and
	// high-water update are O(1).
	ctrl, data packet.Queue
	qBytes     int64
	totQBytes  int64
	paused     bool // the data class is PFC-paused

	// Lazy service state. The transmitter owns no standing tx-complete
	// event: busyUntil records when the frame being serialized (if any)
	// leaves the wire, and service resumes either inline — a kick at
	// now >= busyUntil serializes immediately — or through at most one
	// deferred kick armed at the frame boundary. The deferred kick is
	// armed at serialization time when more packets are already queued
	// (exactly where the eager per-packet tx-complete event used to be
	// scheduled), or by the first mid-frame Enqueue/resume when the
	// queue had drained; a busy period that ends with empty queues
	// schedules nothing at all, which eliminates up to one engine event
	// per packet at low-to-mid load.
	busyUntil sim.Time
	kickArmed bool
	kickEv    sim.Timer
	kickFn    func() // reusable closure built once at wiring time

	txBytes uint64 // cumulative bytes fully handed to the serializer
	rxQ     uint64 // cumulative data bytes enqueued (INT rxRate ablation)

	// Statistics.
	pktsSent    uint64
	pauseStart  sim.Time
	pausedFor   sim.Time
	pauseEvents uint64
	maxQBytes   int64

	// pauseHook, if set, observes every pause/resume transition of this
	// transmitter (the observer layer's PFC event stream).
	pauseHook func(paused bool)
}

// SetPauseHook installs fn to observe every PFC pause/resume transition
// applied to this port. Pass nil to remove.
func (pt *Port) SetPauseHook(fn func(paused bool)) { pt.pauseHook = fn }

func newPort(eng *sim.Engine, owner Node, index int, rate sim.Rate, delay sim.Time) *Port {
	pt := &Port{eng: eng, owner: owner, index: index, rate: rate, perByte: rate.PsPerByte(), delay: delay}
	pt.kickFn = func() {
		pt.kickArmed = false
		pt.kickEv = sim.Timer{}
		pt.kick()
	}
	return pt
}

// Index returns the port's position in its owner's port list.
func (pt *Port) Index() int { return pt.index }

// SetWireKey assigns the directed link's structural ID, used as the
// canonical rank of its delivery events. The topology builder calls it
// once at build time, before any traffic flows.
func (pt *Port) SetWireKey(key uint64) { pt.wireKey = key }

// Rate returns the link bandwidth.
func (pt *Port) Rate() sim.Rate { return pt.rate }

// Delay returns the one-way propagation delay of the link.
func (pt *Port) Delay() sim.Time { return pt.delay }

// Peer returns the node at the far end of the link.
func (pt *Port) Peer() Node { return pt.peer }

// QueueBytes returns the data bytes currently queued.
func (pt *Port) QueueBytes() int64 { return pt.qBytes }

// QueueLen returns the number of data frames queued.
func (pt *Port) QueueLen() int { return pt.data.Len() }

// TotalQueueBytes returns the bytes queued in both classes.
func (pt *Port) TotalQueueBytes() int64 { return pt.totQBytes }

// TxBytes returns the cumulative transmitted byte counter (the INT
// txBytes field).
func (pt *Port) TxBytes() uint64 { return pt.txBytes }

// RxQueueBytes returns the cumulative data bytes ever enqueued (the INT
// rxBytes counter used by the HPCC-rxRate ablation).
func (pt *Port) RxQueueBytes() uint64 { return pt.rxQ }

// PacketsSent returns the number of packets fully serialized.
func (pt *Port) PacketsSent() uint64 { return pt.pktsSent }

// MaxQueueBytes returns the high-water mark of total queued bytes.
func (pt *Port) MaxQueueBytes() int64 { return pt.maxQBytes }

// PauseEvents returns how many pause transitions this port received.
func (pt *Port) PauseEvents() uint64 { return pt.pauseEvents }

// PausedFor returns the cumulative time the data class has spent
// paused, including an in-progress pause.
func (pt *Port) PausedFor() sim.Time {
	d := pt.pausedFor
	if pt.paused {
		d += pt.eng.Now() - pt.pauseStart
	}
	return d
}

// Paused reports whether the data class is currently paused.
func (pt *Port) Paused() bool { return pt.paused }

// SetPaused applies a PFC pause or resume to the data class. The frame
// currently being serialized, if any, always completes (hardware cannot
// abort a frame mid-flight).
func (pt *Port) SetPaused(pause bool) {
	if pt.paused == pause {
		return
	}
	pt.paused = pause
	if pause {
		pt.pauseStart = pt.eng.Now()
		pt.pauseEvents++
	} else {
		pt.pausedFor += pt.eng.Now() - pt.pauseStart
		pt.kick()
	}
	if pt.pauseHook != nil {
		pt.pauseHook(pause)
	}
}

// Enqueue queues p in its class for transmission. ingress is the
// owner's port index the packet arrived on (-1 if locally generated).
//
// A frame that meets an idle transmitter (frame ended, queues empty, no
// kick armed, its class not paused) cuts through: it is serialized at
// once, exactly as kick would after pushing and popping it back.
func (pt *Port) Enqueue(p *packet.Packet, ingress int) {
	size := int64(p.Size)
	isData := p.Type == packet.Data
	if isData {
		pt.rxQ += uint64(p.Size)
	}
	now := pt.eng.Now()
	if pt.totQBytes == 0 && !pt.kickArmed && !(isData && pt.paused) && now >= pt.busyUntil {
		if size > pt.maxQBytes {
			pt.maxQBytes = size
		}
		pt.serialize(p, ingress, now)
		return
	}
	if isData {
		pt.data.Push(p, ingress)
		pt.qBytes += size
	} else {
		pt.ctrl.Push(p, ingress)
	}
	pt.totQBytes += size
	if pt.totQBytes > pt.maxQBytes {
		pt.maxQBytes = pt.totQBytes
	}
	pt.kick()
}

// kick services the transmitter. Mid-frame (now < busyUntil) it arms at
// most one deferred kick at the frame boundary and returns; otherwise
// it serializes the head of the control queue, or if that is empty the
// head of the data queue unless data is paused, and, when more
// packets remain queued, re-arms the deferred kick for the new frame's
// end, exactly when the eager per-packet tx-complete event used to
// fire. A drained queue arms nothing: the next Enqueue or PFC resume
// restarts service, inline when the frame has already ended.
func (pt *Port) kick() {
	now := pt.eng.Now()
	if now < pt.busyUntil {
		// Queues empty (a PFC resume on a drained port): nothing will be
		// serviceable at the frame boundary either — every path that
		// adds work or eligibility (Enqueue, a later resume) kicks again.
		if !pt.kickArmed && pt.totQBytes > 0 {
			pt.kickArmed = true
			pt.kickEv = pt.eng.At(pt.busyUntil, pt.kickFn)
		}
		return
	}
	q := &pt.ctrl
	if q.Len() == 0 {
		if pt.paused || pt.data.Len() == 0 {
			return
		}
		q = &pt.data
	}
	if pt.kickArmed {
		// A kick armed for this very instant became redundant: another
		// same-picosecond event (an Enqueue, a PFC resume) got here
		// first. Cancel it so it cannot fire mid-frame and re-arm.
		pt.kickArmed = false
		pt.eng.Cancel(pt.kickEv)
		pt.kickEv = sim.Timer{}
	}
	p, ingress := q.Pop()
	size := int64(p.Size)
	if q == &pt.data {
		pt.qBytes -= size
	}
	pt.totQBytes -= size
	pt.serialize(p, ingress, now)
}

// serialize puts p on the wire at now: the transmitter is busy until its
// last bit leaves, the owner sees the dequeue (buffer release, PFC
// resume, INT stamp), the deferred kick is armed if frames wait behind
// it, and the frame is handed to the wire for delivery at the peer.
func (pt *Port) serialize(p *packet.Packet, ingress int, now sim.Time) {
	pt.busyUntil = now + sim.Time(p.Size)*pt.perByte // rate.TxTime(p.Size), without its division
	pt.txBytes += uint64(p.Size)
	pt.pktsSent++
	pt.owner.OnDequeue(p, ingress, pt)

	if pt.totQBytes > 0 && !pt.kickArmed {
		pt.kickArmed = true
		pt.kickEv = pt.eng.At(pt.busyUntil, pt.kickFn)
	}
	pt.eng.Deliver(pt.busyUntil+pt.delay, pt.wireKey, pt, p)
}

// Arrive is the far end of the local wire (sim.Sink): the frame handed
// to Deliver at serialization time reaches the peer.
func (pt *Port) Arrive(arg any) {
	pt.peer.HandleArrival(arg.(*packet.Packet), pt.peerPort)
}
