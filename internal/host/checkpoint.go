package host

import "hpcc/internal/sim"

// This file implements the sim.Checkpointable contract for hosts: at a
// speculation barrier the host snapshots its mutable transport state —
// live sender flows (with their CC instances and IRN recovery maps),
// receiver reassembly state, pending RDMA READs, the flow-scheduler
// admission queue, in-flight CC trampolines and the completed-flow
// retention bookkeeping — and restores it all in place on rollback.
//
// The cost is proportional to *live* state, not campaign length: done
// flows are immutable (every handler is gated on the flow being live),
// so the checkpoint walks liveList instead of the whole retained-flow
// map, and flow-map membership changes since the checkpoint are undone
// through the jAdded/jRemoved journals rather than by copying the map.
//
// Like the fabric layer, restores go through the original pointers
// (*f = snapshot value), so every live reference — timer callbacks,
// trampoline bindings, onDone closures — survives rollback untouched.
// Map-typed fields need one extra step: the value copy preserves the
// map *pointer* but not its contents, so key/value pairs are dumped
// into a shared buffer at checkpoint and the (pointer-identical) map is
// cleared and repopulated on rollback.

// seqKV is one entry of an IRN sacked/rtx map or a receiver ooo map.
type seqKV struct {
	k int64
	v int32
}

// flowSnap is one live sender flow at checkpoint time.
type flowSnap struct {
	ptr                *Flow
	val                Flow
	sackedOff, sackedN int
	rtxOff, rtxN       int
}

// recvSnap is one live receiver reassembly state at checkpoint time.
type recvSnap struct {
	id           int32
	ptr          *recvState
	val          recvState
	oooOff, oooN int
}

// readSnap is one pending RDMA READ at checkpoint time.
type readSnap struct {
	id  int32
	ptr *pendingRead
	val pendingRead
}

// wrapSnap is one in-flight CC trampoline's binding at checkpoint time.
type wrapSnap struct {
	w   *schedWrap
	f   *Flow
	gen uint32
	fn  func()
}

type hostSnap struct {
	flows []flowSnap
	live  []*Flow
	recvs []recvSnap
	reads []readSnap
	kvs   []seqKV

	activeFlows int
	waiting     []*Flow

	wraps    []wrapSnap
	wrapFree []*schedWrap

	doneRing    [doneRingSize]int32
	doneHead    int
	retired     []int32
	retiredHead int
	evicted     int
	evictedPkts uint64
}

// dumpKVs appends m's entries to buf, returning their (offset, count).
func dumpKVs(buf *[]seqKV, m map[int64]int32) (off, n int) {
	off = len(*buf)
	//hpcclint:allow determinism -- snapshot dump restored via restoreKVs into a map; entry order never observed
	for k, v := range m {
		*buf = append(*buf, seqKV{k, v})
	}
	return off, len(*buf) - off
}

// restoreKVs resets m to exactly kvs[off : off+n].
func restoreKVs(m map[int64]int32, kvs []seqKV, off, n int) {
	if m == nil {
		return
	}
	clear(m)
	for _, kv := range kvs[off : off+n] {
		m[kv.k] = kv.v
	}
}

// Checkpoint captures the host's mutable state, overwriting the
// previous checkpoint, and turns on membership journaling so Rollback
// can undo flow-map insertions and evictions in O(changes).
func (h *Host) Checkpoint() {
	s := h.snap
	if s == nil {
		s = &hostSnap{}
		h.snap = s
	}
	h.journal = true
	h.jAdded = h.jAdded[:0]
	h.jRemoved = h.jRemoved[:0]

	s.kvs = s.kvs[:0]
	s.flows = s.flows[:0]
	for _, f := range h.liveList {
		//hpcclint:alias sacked/rtx are deep-copied via dumpKVs below and restored through the pointer-identical maps; ackEv.Hops is per-ACK scratch, always nil between events
		fs := flowSnap{ptr: f, val: *f}
		fs.sackedOff, fs.sackedN = dumpKVs(&s.kvs, f.sacked)
		fs.rtxOff, fs.rtxN = dumpKVs(&s.kvs, f.rtx)
		if c, ok := f.alg.(sim.Checkpointable); ok {
			c.Checkpoint()
		}
		s.flows = append(s.flows, fs)
	}
	s.live = append(s.live[:0], h.liveList...)

	s.recvs = s.recvs[:0]
	//hpcclint:allow determinism -- snapshot restored back through per-entry pointers; order never observed
	for id, rs := range h.recv {
		//hpcclint:alias ooo is deep-copied via dumpKVs below and restored through the pointer-identical map
		r := recvSnap{id: id, ptr: rs, val: *rs}
		r.oooOff, r.oooN = dumpKVs(&s.kvs, rs.ooo)
		s.recvs = append(s.recvs, r)
	}
	s.reads = s.reads[:0]
	//hpcclint:allow determinism -- snapshot restored back through per-entry pointers; order never observed
	for id, pr := range h.reads {
		s.reads = append(s.reads, readSnap{id: id, ptr: pr, val: *pr})
	}

	s.activeFlows = h.activeFlows
	s.waiting = append(s.waiting[:0], h.waiting...)

	s.wraps = s.wraps[:0]
	for _, w := range h.liveWraps {
		s.wraps = append(s.wraps, wrapSnap{w: w, f: w.f, gen: w.gen, fn: w.fn}) //hpcclint:alias journals the trampoline binding only; Rollback writes f/fn/idx back through w, and the Flow value itself is restored by the flowSnap pass
	}
	s.wrapFree = append(s.wrapFree[:0], h.wrapFree...)

	s.doneRing = h.doneRing
	s.doneHead = h.doneHead
	s.retired = append(s.retired[:0], h.retired...)
	s.retiredHead = h.retiredHead
	s.evicted = h.evicted
	s.evictedPkts = h.evictedPkts
}

// Rollback restores the last Checkpoint in place.
func (h *Host) Rollback() {
	s := h.snap
	if s == nil {
		panic("host: Rollback without Checkpoint")
	}
	// Undo flow-map membership changes. Reinsert evictions before
	// deleting insertions: a flow both started and evicted inside the
	// rolled-back epoch must end up absent.
	for _, g := range h.jRemoved {
		h.flows[g.ID] = g
	}
	for _, f := range h.jAdded {
		delete(h.flows, f.ID)
	}
	h.jAdded = h.jAdded[:0]
	h.jRemoved = h.jRemoved[:0]

	for i := range s.flows {
		fs := &s.flows[i]
		f := fs.ptr
		*f = fs.val
		restoreKVs(f.sacked, s.kvs, fs.sackedOff, fs.sackedN)
		restoreKVs(f.rtx, s.kvs, fs.rtxOff, fs.rtxN)
		if c, ok := f.alg.(sim.Checkpointable); ok {
			c.Rollback()
		}
	}
	h.liveList = append(h.liveList[:0], s.live...)
	for i, f := range h.liveList {
		f.liveIdx = i
	}

	clear(h.recv)
	for i := range s.recvs {
		r := &s.recvs[i]
		*r.ptr = r.val
		restoreKVs(r.ptr.ooo, s.kvs, r.oooOff, r.oooN)
		h.recv[r.id] = r.ptr
	}
	clear(h.reads)
	for i := range s.reads {
		r := &s.reads[i]
		*r.ptr = r.val
		h.reads[r.id] = r.ptr
	}

	h.activeFlows = s.activeFlows
	h.waiting = append(h.waiting[:0], s.waiting...)

	h.liveWraps = h.liveWraps[:0]
	for i := range s.wraps {
		ws := &s.wraps[i]
		ws.w.f, ws.w.gen, ws.w.fn = ws.f, ws.gen, ws.fn
		ws.w.idx = i
		h.liveWraps = append(h.liveWraps, ws.w)
	}
	h.wrapFree = append(h.wrapFree[:0], s.wrapFree...)

	h.doneRing = s.doneRing
	h.doneHead = s.doneHead
	h.retired = append(h.retired[:0], s.retired...)
	h.retiredHead = s.retiredHead
	h.evicted = s.evicted
	h.evictedPkts = s.evictedPkts
}
