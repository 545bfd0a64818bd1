package host

import (
	"hpcc/internal/cc"
	"hpcc/internal/fabric"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// Flow is one sender-side queue pair: it segments size bytes into
// MTU-sized packets, enforces the CC window and pacing rate, and runs
// loss recovery.
//
// Loss recovery keys on sndUna: a sender sees its cumulative ACK
// sequence in order (the package doc's invariant), so a GBN NACK has
// nothing to acknowledge: the ACKs for every byte below its sequence
// came first. IRN counts every unACKed, unSACKed chunk below lostEnd
// lost, and one cursor, rtxNxt, walks those chunks in order.
type Flow struct {
	ID int32
	// qp is the flow's sender QPN at its host; peerQP its receive QPN
	// at dst, the DstQP of its data frames.
	qp, peerQP int32
	dst        fabric.NodeID
	host       *Host
	size       int64
	port       *fabric.Port

	// Bound to this *Flow rather than to one transfer, and therefore
	// kept when the host recycles it (StartFlow): the CC instance
	// (re-armed by Init), its environment (Schedule captures the
	// pointer) and the generation that tells this transfer's CC timers
	// from an earlier one's.
	alg cc.Algorithm
	env cc.Env
	gen uint32

	// sndMax is the end of the highest byte ever sent: a frame below it
	// is a retransmission, whichever mode resent it.
	sndNxt, sndUna, sndMax int64
	nextSendAt             sim.Time
	sendEv                 sim.Timer
	rtoEv                  sim.Timer
	lastProgress           sim.Time

	// sendFn/rtoFn are the flow's timer callbacks, built once per *Flow
	// (Host.newFlow) so re-arming the pacer or the RTO never allocates a
	// closure.
	sendFn, rtoFn func()
	// ackEv is the reusable event passed to the CC algorithm on every
	// ACK (algorithms treat it as transient; HPCC copies the hop
	// records it keeps).
	ackEv cc.AckEvent

	// IRN state: SACKed chunks, the end of the chunks counted lost, the
	// recovery cursor, and when a gap ACK last sent it back to sndUna.
	sacked          chunkSet
	lostEnd, rtxNxt int64
	lastRtxAt       sim.Time

	started  sim.Time
	finished sim.Time
	done     bool
	alive    bool
	pinned   bool // a handle left the simulator: evict and count, never recycle
	onDone   func(*Flow)

	// OnProgress, if set, observes every cumulative-ACK advance (for
	// throughput time series).
	OnProgress func(f *Flow, newlyAcked int64)

	pktsSent, pktsRtx uint64
}

// Size returns the flow's total bytes.
func (f *Flow) Size() int64 { return f.size }

// Started returns the flow start time.
func (f *Flow) Started() sim.Time { return f.started }

// Finished returns the completion time (valid once Done).
func (f *Flow) Finished() sim.Time { return f.finished }

// Done reports whether every byte has been cumulatively acknowledged.
func (f *Flow) Done() bool { return f.done }

// FCT returns the flow completion time (valid once Done).
func (f *Flow) FCT() sim.Time { return f.finished - f.started }

// Acked returns the cumulatively acknowledged byte count.
func (f *Flow) Acked() int64 { return f.sndUna }

// Dst returns the destination host's node ID.
func (f *Flow) Dst() fabric.NodeID { return f.dst }

// Host returns the sending host that owns this flow.
func (f *Flow) Host() *Host { return f.host }

// Pin marks the flow as referenced from outside the simulator (a handle
// returned to a library user): under Config.CompletedWindow it is still
// evicted and counted, but its *Flow is never reused for a later flow,
// so the handle keeps reading this transfer's results.
func (f *Flow) Pin() { f.pinned = true }

// Alg exposes the flow's CC instance for tracing.
func (f *Flow) Alg() cc.Algorithm { return f.alg }

// PacketsSent returns total data packets emitted (including
// retransmissions, reported separately by Retransmits).
func (f *Flow) PacketsSent() uint64 { return f.pktsSent }

// Retransmits returns the number of retransmitted packets: frames sent
// below the highest byte already sent, counted alike under GBN (a
// rewind resends each frame again) and IRN (each selective resend).
func (f *Flow) Retransmits() uint64 { return f.pktsRtx }

// inflight returns sndNxt − sndUna, as RoCE's window and IRN's BDP-FC count.
func (f *Flow) inflight() int64 {
	return f.sndNxt - f.sndUna
}

// window returns the effective inflight cap: the CC window, further
// bounded by IRN's fixed BDP cap in IRN mode.
func (f *Flow) window() float64 {
	w := f.alg.WindowBytes()
	if f.host.cfg.FlowCtl == IRN {
		w = min(w, f.env.BDP())
	}
	return w
}

// chunk returns the payload length of the chunk starting at seq.
func (f *Flow) chunk(seq int64) int32 { return int32(min(f.size-seq, packet.DefaultMTU)) }

// nextChunk picks the next (seq, payload) to transmit: IRN's next lost
// chunk at or after the cursor first, then new data.
func (f *Flow) nextChunk() (seq int64, payload int32, isRtx bool) {
	f.rtxNxt = max(f.rtxNxt, f.sndUna)
	for f.rtxNxt < f.lostEnd && f.sacked.has(f.rtxNxt) {
		f.rtxNxt += packet.DefaultMTU
	}
	switch {
	case f.rtxNxt < f.lostEnd:
		return f.rtxNxt, f.chunk(f.rtxNxt), true
	case f.sndNxt < f.size:
		return f.sndNxt, f.chunk(f.sndNxt), false
	}
	return 0, 0, false
}

// trySend transmits as many packets as the window and pacer allow,
// arming the pacing timer when it runs ahead of the clock.
func (f *Flow) trySend() {
	if f.done || !f.alive {
		return
	}
	now := f.host.eng.Now()
	for {
		seq, payload, isRtx := f.nextChunk()
		if payload == 0 {
			return
		}
		// Window gate for new data (a retransmission does not extend
		// sndNxt); a flow with nothing inflight may always send one
		// packet so a sub-MTU window cannot deadlock it.
		if !isRtx && f.inflight() > 0 && float64(f.inflight()+int64(payload)) > f.window() {
			return
		}
		if now < f.nextSendAt {
			f.armSendTimer()
			return
		}
		f.emit(now, seq, payload, isRtx)
	}
}

func (f *Flow) emit(now sim.Time, seq int64, payload int32, isRtx bool) {
	var p *packet.Packet
	size := payload + packet.HeaderBytes
	if f.host.cfg.INT {
		size += packet.INTOverhead
		p = f.host.pool.GetINT()
	} else {
		p = f.host.pool.Get()
	}
	p.Type = packet.Data
	p.FlowID = f.ID
	p.DstQP = f.peerQP
	p.Src = int32(f.host.id)
	p.Dst = int32(f.dst)
	p.Size = size
	p.Seq = seq
	p.PayloadLen = payload
	p.SendTS = now
	// Mark the chunk carrying the flow's last byte so the receiver can
	// finish its receive QP once everything before it landed.
	end := seq + int64(payload)
	p.FlowEnd = end >= f.size
	f.port.Enqueue(p, -1)
	f.pktsSent++
	if seq < f.sndMax {
		f.pktsRtx++
	}
	f.sndMax = max(f.sndMax, end)
	if isRtx {
		f.rtxNxt = end
	} else {
		f.sndNxt = end
	}
	// Pace the next transmission at the CC rate.
	rate := f.alg.RateBps()
	if rate > float64(f.port.Rate()) {
		rate = float64(f.port.Rate())
	}
	var gap sim.Time
	if rate > 0 {
		gap = sim.Time(float64(size) * 8 * float64(sim.Second) / rate)
	}
	base := f.nextSendAt
	if now > base {
		base = now
	}
	f.nextSendAt = base + gap
}

func (f *Flow) armSendTimer() {
	// Lazy re-arm: trySend runs on every ACK and CC tick, and nextSendAt
	// only moves when a packet is emitted — so the pacer is usually
	// already armed at exactly the right instant. Keeping that event
	// avoids a cancel + re-push through the scheduler per ACK; the event
	// that eventually fires is the same one, just with its original
	// scheduling sequence.
	if f.sendEv.Armed() && f.sendEv.When() == f.nextSendAt {
		return
	}
	f.host.eng.Cancel(f.sendEv) // stale or zero handles are no-ops
	f.sendEv = f.host.eng.At(f.nextSendAt, f.sendFn)
}

// handleAck processes a cumulative (and, under IRN, selective) ACK.
func (f *Flow) handleAck(p *packet.Packet) {
	if f.done {
		return
	}
	now := f.host.eng.Now()
	newly := int64(0)
	if p.AckSeq > f.sndUna {
		newly = p.AckSeq - f.sndUna
		f.sndUna = p.AckSeq
		f.lastProgress = now
	}
	if f.host.cfg.FlowCtl == IRN {
		f.irnOnAck(p, now)
	}

	ev := &f.ackEv
	ev.Now = now
	ev.RTT = now - p.SendTS
	ev.AckSeq = p.AckSeq
	ev.SndNxt = f.sndNxt
	ev.AckedBytes = newly
	ev.ECE = p.ECE
	ev.Hops, ev.PathID = nil, 0
	if h := p.INT; h != nil {
		ev.Hops, ev.PathID = h.Records(), h.PathID
	}
	f.alg.OnAck(ev)
	ev.Hops = nil // p returns to the pool after this ACK is consumed

	if newly > 0 && f.OnProgress != nil {
		f.OnProgress(f, newly)
	}
	if f.sndUna >= f.size {
		f.complete(now)
		return
	}
	f.trySend()
}

// irnOnAck takes a gap ACK (the receiver holds Seq, waits at sndUna):
// it SACKs Seq, counts every chunk below it lost, and sends the
// cursor back to sndUna at most once per base RTT T, not over resends
// that may still be in flight.
func (f *Flow) irnOnAck(p *packet.Packet, now sim.Time) {
	if p.Seq <= p.AckSeq {
		return
	}
	f.sacked.add(p.Seq)
	f.lostEnd = max(f.lostEnd, p.Seq)
	if now-f.lastRtxAt > f.host.cfg.BaseRTT {
		f.rtxNxt, f.lastRtxAt = f.sndUna, now
	}
}

// handleNack processes a go-back-N NACK: rewind to the receiver's
// expected sequence.
func (f *Flow) handleNack(p *packet.Packet) {
	if f.done || f.host.cfg.FlowCtl != GoBackN {
		return
	}
	f.sndNxt = min(f.sndNxt, p.AckSeq)
	f.trySend()
}

// armRTO arms the retransmission-timeout backstop.
func (f *Flow) armRTO() {
	f.rtoEv = f.host.eng.After(RTO, f.rtoFn)
}

// onRTO fires the retransmission-timeout backstop and re-arms it.
func (f *Flow) onRTO() {
	f.rtoEv = sim.Timer{}
	if f.done || !f.alive {
		return
	}
	now := f.host.eng.Now()
	if f.inflight() > 0 && now-f.lastProgress >= RTO {
		// Timed out: rewind (GBN), or count every unacked chunk lost (IRN).
		if f.host.cfg.FlowCtl == GoBackN {
			f.sndNxt = f.sndUna
		} else {
			f.lostEnd, f.rtxNxt = f.sndNxt, f.sndUna
		}
		f.lastProgress = now
		f.trySend()
	}
	f.armRTO()
}

// Abort stops the flow immediately without firing onDone — used by
// experiments to make long-running flows "leave" at a scheduled time.
func (f *Flow) Abort() {
	if f.done {
		return
	}
	f.teardown(f.host.eng.Now())
}

func (f *Flow) complete(now sim.Time) {
	f.teardown(now)
	if f.onDone != nil {
		f.onDone(f)
	}
	f.host.noteFlowDone(f)
}

func (f *Flow) teardown(now sim.Time) {
	f.done = true
	f.alive = false
	f.finished = now
	f.host.eng.Cancel(f.sendEv)
	f.sendEv = sim.Timer{}
	f.host.eng.Cancel(f.rtoEv)
	f.rtoEv = sim.Timer{}
}
