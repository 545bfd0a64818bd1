package host

import (
	"math"

	"hpcc/internal/fabric"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// recvState is a receive QP: the per-flow receiver state — cumulative
// reassembly plus go-back-N's NACK or IRN's out-of-order chunk set, and
// DCQCN's CNP rate limiter — with the sender QPN its ACK, NACK and CNP
// frames are addressed to and the RDMA READ it completes, if any. It
// lives in Host.recv at its QPN, from openRecv until the flow's final
// byte was delivered in order (the sender marks the last chunk with
// FlowEnd); then its QPN is freed.
type recvState struct {
	flowID   int32 // 0 while the QPN is free
	peerQP   int32 // the flow's sender QPN at the peer
	rcvNxt   int64
	ooo      chunkSet // IRN: buffered out-of-order chunks, kept by openRecv
	lastCNP  sim.Time
	endSeq   int64  // flow length from the FlowEnd marker, MaxInt64 until then
	readSize int64  // RDMA READ: the bytes requested
	readDone func() // RDMA READ: the requester's callback, nil once fired
	nackSent bool   // GBN: one NACK per out-of-sequence episode
	hasCNP   bool
}

// finished reports whether every byte up to the FlowEnd marker arrived.
func (rs *recvState) finished() bool { return rs.rcvNxt >= rs.endSeq }

// openRecv opens a receive QP for inbound flow id, answering to the
// sender QP peer, in the zero state a flow's first frame finds, and
// returns its QPN.
func (h *Host) openRecv(id, peer int32) int32 {
	var qp int32
	if n := len(h.recvFree); n > 0 {
		qp = h.recvFree[n-1]
		h.recvFree = h.recvFree[:n-1]
	} else {
		// h.recv grows to the host's peak of open QPs.
		qp = int32(len(h.recv))
		h.recv = append(h.recv, recvState{})
	}
	rs := &h.recv[qp]
	*rs = recvState{flowID: id, peerQP: peer, endSeq: math.MaxInt64, ooo: rs.ooo[:0]}
	return qp
}

// handleData runs the receiver side: reassemble, acknowledge, and
// generate CNPs on ECN marks. The data packet is terminally consumed
// here: it is either converted in place into its own ACK (which also
// reuses the INT stack without copying it) or returned to the pool.
func (h *Host) handleData(p *packet.Packet, in *fabric.Port) {
	qp := p.DstQP
	if qp <= 0 || int(qp) >= len(h.recv) || h.recv[qp].flowID != p.FlowID {
		// No open receive QP: a straggler duplicate of a finished flow
		// (e.g. an RTO retransmission racing the final ACK). Its QPN was
		// freed at finish, and flow IDs are network-unique, so a QPN
		// reissued since names another flow. Drop it: no ACK, no NACK,
		// no state.
		h.pool.Put(p)
		return
	}
	rs := &h.recv[qp]
	now := h.eng.Now()
	if p.FlowEnd {
		rs.endSeq = p.Seq + int64(p.PayloadLen)
	}

	// DCQCN CNP generation: at most one per CNPInterval per flow.
	if p.ECNCE && (!rs.hasCNP || now-rs.lastCNP >= CNPInterval) {
		rs.hasCNP = true
		rs.lastCNP = now
		h.sendCtrl(in, p, rs.peerQP, packet.CNP, 0)
	}

	switch h.cfg.FlowCtl {
	case GoBackN:
		switch {
		case p.Seq == rs.rcvNxt:
			rs.rcvNxt += int64(p.PayloadLen)
			rs.nackSent = false
			h.sendAck(in, p, rs)
		case p.Seq > rs.rcvNxt:
			// Out of sequence: NACK once per episode, drop payload.
			if !rs.nackSent {
				rs.nackSent = true
				h.sendCtrl(in, p, rs.peerQP, packet.Nack, rs.rcvNxt)
			}
			h.pool.Put(p)
		default:
			// Duplicate of already-delivered data: re-ACK to resync.
			h.sendAck(in, p, rs)
		}
	case IRN:
		switch {
		case p.Seq == rs.rcvNxt:
			rs.rcvNxt += int64(p.PayloadLen)
			// Absorb now-contiguous buffered chunks; only the last, which
			// carries FlowEnd and finishes the QP, may be short.
			for !rs.finished() && rs.ooo.has(rs.rcvNxt) {
				rs.rcvNxt = min(rs.rcvNxt+packet.DefaultMTU, rs.endSeq)
			}
			h.sendAck(in, p, rs)
		case p.Seq > rs.rcvNxt:
			rs.ooo.add(p.Seq)
			// Selective ACK: cumulative position + the received seq.
			h.sendAck(in, p, rs)
		default:
			h.sendAck(in, p, rs)
		}
	}

	// End of flow: every byte up to the FlowEnd marker arrived in
	// order, so the QP is freed.
	if rs.finished() {
		rs.flowID = 0
		h.recvFree = append(h.recvFree, qp)
	}
	// A pending RDMA READ completes once its response stream has fully
	// arrived in order. Its fields are read before onDone runs, because
	// onDone may open receive QPs here, reissuing this QPN or moving
	// h.recv.
	if done := rs.readDone; done != nil && rs.rcvNxt >= rs.readSize {
		rs.readDone = nil
		done()
	}
}

// sendAck converts data packet p into its own ACK in place — flipping
// src/dst, keeping its Seq and timestamp, echoing its ECN mark and INT
// stack (§3.1: "the receiver copies all the meta-data recorded by the
// switches to the ACK") — and transmits it. Reusing the struct avoids both the ACK
// allocation and a copy of the 208-byte INT stack per data packet.
func (h *Host) sendAck(via *fabric.Port, p *packet.Packet, rs *recvState) {
	size := int32(packet.AckBytes)
	if h.cfg.INT {
		size += packet.INTOverhead
	}
	p.Type = packet.Ack
	p.Src, p.Dst = p.Dst, p.Src
	p.Size = size
	p.DstQP = rs.peerQP
	p.AckSeq = rs.rcvNxt
	p.ECE = p.ECNCE
	via.Enqueue(p, -1)
}

// sendCtrl emits a NACK or CNP toward the sender of p, at its QP qp.
func (h *Host) sendCtrl(via *fabric.Port, p *packet.Packet, qp int32, typ packet.Type, expSeq int64) {
	ctrl := h.pool.Get()
	ctrl.Type = typ
	ctrl.FlowID = p.FlowID
	ctrl.DstQP = qp
	ctrl.Src = p.Dst
	ctrl.Dst = p.Src
	ctrl.Size = packet.CtrlBytes
	ctrl.AckSeq = expSeq
	ctrl.Seq, ctrl.SendTS = p.Seq, p.SendTS
	via.Enqueue(ctrl, -1)
}
