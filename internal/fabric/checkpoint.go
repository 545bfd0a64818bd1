package fabric

import (
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// This file implements the sim.Checkpointable contract for the fabric:
// ports and switches snapshot their mutable state at a speculation
// barrier and restore it in place on rollback.
//
// Queued and in-flight packets need deep copies: packet structs are
// pooled, so a packet sitting in a queue at checkpoint time may have
// been consumed — and its struct reused for an unrelated frame — by the
// time the epoch rolls back. Each snapshot entry therefore keeps the
// struct's identity (the pointer every queue and freelist reference
// goes through) plus a full value copy, and restore writes the value
// back through the pointer. A packet lives in exactly one place at any
// instant (one queue, one wire, or one freelist), so the write-backs
// never conflict — including across shards restored concurrently.

// entrySnap is one queued packet at checkpoint time.
type entrySnap struct {
	p       *packet.Packet
	val     packet.Packet
	ingress int
}

// wireSnap is one in-flight packet at checkpoint time.
type wireSnap struct {
	p   *packet.Packet
	val packet.Packet
	at  sim.Time
}

type portSnap struct {
	queues      [NumPrio][]entrySnap
	qBytes      [NumPrio]int64
	totQBytes   int64
	paused      [NumPrio]bool
	busyUntil   sim.Time
	kickArmed   bool
	kickEv      sim.Timer
	wire        []wireSnap
	wireArmed   bool
	txBytes     uint64
	rxQ         [NumPrio]uint64
	pktsSent    uint64
	pauseStart  [NumPrio]sim.Time
	pausedFor   [NumPrio]sim.Time
	pauseEvents uint64
	maxQBytes   int64
}

// Checkpoint captures the port's mutable state — priority queues and
// the wire with deep packet copies, pause state, lazy-service state
// (busyUntil, the deferred-kick arm and its timer handle) and counters —
// overwriting the previous checkpoint. The port's scheduled events
// (deferred kick, wire delivery) are engine state and are checkpointed
// there; kickArmed/wireArmed are restored consistently because both
// snapshots are taken at the same barrier, and the kickEv handle stays
// valid across rollback because the engine restores pending events in
// place through their original pointers (same struct, same generation).
func (pt *Port) Checkpoint() {
	s := pt.snap
	if s == nil {
		s = &portSnap{}
		pt.snap = s
	}
	for i := range pt.queues {
		q := &pt.queues[i]
		dst := s.queues[i][:0]
		for _, e := range q.buf[q.head:] {
			dst = append(dst, entrySnap{p: e.p, val: *e.p, ingress: e.ingress})
		}
		s.queues[i] = dst
	}
	s.wire = s.wire[:0]
	for _, e := range pt.wire.buf[pt.wire.head:] {
		s.wire = append(s.wire, wireSnap{p: e.p, val: *e.p, at: e.at})
	}
	s.qBytes = pt.qBytes
	s.totQBytes = pt.totQBytes
	s.paused = pt.paused
	s.busyUntil = pt.busyUntil
	s.kickArmed = pt.kickArmed
	s.kickEv = pt.kickEv
	s.wireArmed = pt.wireArmed
	s.txBytes = pt.txBytes
	s.rxQ = pt.rxQ
	s.pktsSent = pt.pktsSent
	s.pauseStart = pt.pauseStart
	s.pausedFor = pt.pausedFor
	s.pauseEvents = pt.pauseEvents
	s.maxQBytes = pt.maxQBytes
}

// Rollback restores the last Checkpoint in place: queue and wire
// contents are rebuilt through the original packet pointers (restoring
// each packet's checkpointed bytes), and all scalars reset.
func (pt *Port) Rollback() {
	s := pt.snap
	if s == nil {
		panic("fabric: Port.Rollback without Checkpoint")
	}
	for i := range pt.queues {
		q := &pt.queues[i]
		for j := range q.buf {
			q.buf[j] = entry{}
		}
		q.buf, q.head = q.buf[:0], 0
		for k := range s.queues[i] {
			es := &s.queues[i][k]
			*es.p = es.val
			q.buf = append(q.buf, entry{es.p, es.ingress})
		}
	}
	w := &pt.wire
	for j := range w.buf {
		w.buf[j] = wireEntry{}
	}
	w.buf, w.head = w.buf[:0], 0
	for k := range s.wire {
		ws := &s.wire[k]
		*ws.p = ws.val
		w.buf = append(w.buf, wireEntry{ws.p, ws.at})
	}
	pt.qBytes = s.qBytes
	pt.totQBytes = s.totQBytes
	pt.paused = s.paused
	pt.busyUntil = s.busyUntil
	pt.kickArmed = s.kickArmed
	pt.kickEv = s.kickEv
	pt.wireArmed = s.wireArmed
	pt.txBytes = s.txBytes
	pt.rxQ = s.rxQ
	pt.pktsSent = s.pktsSent
	pt.pauseStart = s.pauseStart
	pt.pausedFor = s.pausedFor
	pt.pauseEvents = s.pauseEvents
	pt.maxQBytes = s.maxQBytes
}

type switchSnap struct {
	used      int64
	ingressB  [][NumPrio]int64
	pauseSent [][NumPrio]bool
	drops     uint64
	pfcSent   uint64
	maxUsed   int64
	enqueued  uint64
	ecnMarked uint64
	routeErrs uint64
}

// UsesRNG reports whether the switch's forwarding consults its random
// source (WRED/ECN marking). An RNG mid-stream cannot be snapshotted,
// so speculation is gated off for fabrics with ECN-marking switches.
func (s *Switch) UsesRNG() bool { return s.cfg.ECNEnabled }

// Checkpoint captures the switch's mutable state (shared-buffer
// accounting, per-ingress byte counts, PFC pause bookkeeping, and
// counters), overwriting the previous checkpoint. Ports are
// checkpointed separately; routes are immutable after build.
func (s *Switch) Checkpoint() {
	sn := s.snap
	if sn == nil {
		sn = &switchSnap{}
		s.snap = sn
	}
	sn.used = s.used
	sn.ingressB = append(sn.ingressB[:0], s.ingressB...)
	sn.pauseSent = append(sn.pauseSent[:0], s.pauseSent...)
	sn.drops = s.drops
	sn.pfcSent = s.pfcSent
	sn.maxUsed = s.maxUsed
	sn.enqueued = s.enqueued
	sn.ecnMarked = s.ecnMarked
	sn.routeErrs = s.routeErrs
}

// Rollback restores the last Checkpoint in place.
func (s *Switch) Rollback() {
	sn := s.snap
	if sn == nil {
		panic("fabric: Switch.Rollback without Checkpoint")
	}
	s.used = sn.used
	s.ingressB = append(s.ingressB[:0], sn.ingressB...)
	s.pauseSent = append(s.pauseSent[:0], sn.pauseSent...)
	s.drops = sn.drops
	s.pfcSent = sn.pfcSent
	s.maxUsed = sn.maxUsed
	s.enqueued = sn.enqueued
	s.ecnMarked = sn.ecnMarked
	s.routeErrs = sn.routeErrs
}
