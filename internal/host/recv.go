package host

import (
	"hpcc/internal/fabric"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// recvState is the per-flow receiver: cumulative reassembly plus the
// NACK (go-back-N) or out-of-order buffer (IRN) machinery, and DCQCN's
// CNP rate limiter. It is freed as soon as the flow's final byte has
// been delivered in order (the sender marks the last chunk with
// FlowEnd), so long campaigns do not accumulate dead receiver state;
// with Config.CompletedWindow set it goes to the host's free list.
type recvState struct {
	rcvNxt   int64
	nackSent bool            // GBN: one NACK per out-of-sequence episode
	ooo      map[int64]int32 // IRN: buffered out-of-order chunks
	lastCNP  sim.Time
	hasCNP   bool
	endSeq   int64 // flow length, learned from the FlowEnd marker
	hasEnd   bool
}

// handleData runs the receiver side: reassemble, acknowledge, and
// generate CNPs on ECN marks. The data packet is terminally consumed
// here: it is either converted in place into its own ACK (which also
// reuses the INT stack without copying it) or returned to the pool.
func (h *Host) handleData(p *packet.Packet, in *fabric.Port) {
	flowID := p.FlowID
	rs := h.recv[flowID]
	if rs == nil {
		if h.recentlyRecvDone(flowID) {
			// Straggler duplicate of a flow whose reassembly state was
			// already freed: the sender has (or is about to get) the
			// final cumulative ACK, so drop it rather than recreate —
			// and leak — receiver state or emit a spurious NACK.
			h.pool.Put(p)
			return
		}
		if n := len(h.recvFree); n > 0 {
			rs = h.recvFree[n-1]
			h.recvFree = h.recvFree[:n-1]
		} else {
			// Bounded by the host's peak concurrent inbound flows when
			// CompletedWindow > 0.
			rs = &recvState{}
		}
		if h.cfg.FlowCtl == IRN {
			rs.ooo = make(map[int64]int32) // the reorder map is not recycled with rs
		}
		h.recv[flowID] = rs
	}
	now := h.eng.Now()
	if p.FlowEnd {
		rs.hasEnd = true
		rs.endSeq = p.Seq + int64(p.PayloadLen)
	}

	// DCQCN CNP generation: at most one per CNPInterval per flow.
	if p.ECNCE && (!rs.hasCNP || now-rs.lastCNP >= CNPInterval) {
		rs.hasCNP = true
		rs.lastCNP = now
		h.sendCtrl(in, p, packet.CNP, 0, 0)
	}

	switch h.cfg.FlowCtl {
	case GoBackN:
		switch {
		case p.Seq == rs.rcvNxt:
			rs.rcvNxt += int64(p.PayloadLen)
			rs.nackSent = false
			h.sendAck(in, p, rs.rcvNxt)
			h.checkReadDone(flowID, rs)
		case p.Seq > rs.rcvNxt:
			// Out of sequence: NACK once per episode, drop payload.
			if !rs.nackSent {
				rs.nackSent = true
				h.sendCtrl(in, p, packet.Nack, rs.rcvNxt, p.Seq)
			}
			h.pool.Put(p)
		default:
			// Duplicate of already-delivered data: re-ACK to resync.
			h.sendAck(in, p, rs.rcvNxt)
		}
	case IRN:
		switch {
		case p.Seq == rs.rcvNxt:
			rs.rcvNxt += int64(p.PayloadLen)
			// Absorb any now-contiguous buffered chunks.
			for {
				l, ok := rs.ooo[rs.rcvNxt]
				if !ok {
					break
				}
				delete(rs.ooo, rs.rcvNxt)
				rs.rcvNxt += int64(l)
			}
			h.sendAck(in, p, rs.rcvNxt)
			h.checkReadDone(flowID, rs)
		case p.Seq > rs.rcvNxt:
			if _, dup := rs.ooo[p.Seq]; !dup {
				rs.ooo[p.Seq] = p.PayloadLen
			}
			// Selective ACK: cumulative position + the received seq.
			h.sendAck(in, p, rs.rcvNxt)
		default:
			h.sendAck(in, p, rs.rcvNxt)
		}
	}

	// End of flow: every byte up to the FlowEnd marker arrived in
	// order, so the reassembly state is dead. The flow ID goes into the
	// completed ring so straggler duplicates still in flight are
	// dropped above instead of resurrecting state; even past the ring's
	// horizon a resurrected episode is harmless for correctness — its
	// NACK/re-ACK lands on a sender flow that is already done (control
	// frames are never dropped and stay FIFO on the flow's path, so the
	// final cumulative ACK gets there first) and is ignored.
	if rs.hasEnd && rs.rcvNxt >= rs.endSeq {
		delete(h.recv, flowID)
		h.noteRecvDone(flowID)
		if h.cfg.CompletedWindow > 0 {
			*rs = recvState{}
			// The free list grows to the host's peak concurrent inbound
			// flows, then recycles in place.
			h.recvFree = append(h.recvFree, rs)
		}
	}
}

// checkReadDone fires a pending RDMA READ completion once the read's
// response stream has fully arrived in order.
func (h *Host) checkReadDone(flowID int32, rs *recvState) {
	pr := h.reads[flowID]
	if pr == nil || rs.rcvNxt < pr.size {
		return
	}
	delete(h.reads, flowID)
	if pr.onDone != nil {
		pr.onDone()
	}
}

// sendAck converts data packet p into its own ACK in place — flipping
// src/dst, echoing its timestamp, ECN mark and INT stack (§3.1: "the
// receiver copies all the meta-data recorded by the switches to the
// ACK") — and transmits it. Reusing the struct avoids both the ACK
// allocation and a copy of the 208-byte INT stack per data packet.
func (h *Host) sendAck(via *fabric.Port, p *packet.Packet, cumSeq int64) {
	size := int32(packet.AckBytes)
	if h.cfg.INT {
		size += packet.INTOverhead
	}
	p.Type = packet.Ack
	p.Src, p.Dst = p.Dst, p.Src
	p.Prio = fabric.PrioCtrl
	p.Size = size
	p.AckSeq = cumSeq
	p.DataSeq = p.Seq
	p.EchoTS = p.SendTS
	p.ECE = p.ECNCE
	via.Enqueue(p, -1)
}

// sendCtrl emits a NACK or CNP toward the sender of p.
func (h *Host) sendCtrl(via *fabric.Port, p *packet.Packet, typ packet.Type, expSeq, gotSeq int64) {
	ctrl := h.pool.Get()
	ctrl.Type = typ
	ctrl.FlowID = p.FlowID
	ctrl.Src = p.Dst
	ctrl.Dst = p.Src
	ctrl.Prio = fabric.PrioCtrl
	ctrl.Size = packet.CtrlBytes
	ctrl.AckSeq = expSeq
	ctrl.DataSeq = gotSeq
	ctrl.EchoTS = p.SendTS
	via.Enqueue(ctrl, -1)
}
