// Package host models the RDMA NIC endpoints: per-flow queue pairs with
// sending windows and packet pacing (§3.2), receiver-side ACK/NACK/CNP
// generation, and the two loss-recovery modes the paper evaluates —
// go-back-N (RoCEv2 default) and IRN-style selective repeat (§5.3,
// Figure 12).
// As on an RDMA NIC, a frame finds its connection's state at its
// destination host only by the queue-pair number it carries
// (Packet.DstQP, the BTH DestQP field): each host keeps its sender and
// receive QPs in slices indexed by QPN; nothing is keyed by flow ID.
//
// Loss recovery rests on one fabric invariant: the control frames of a
// flow arrive in the order they were sent. ACKs, NACKs and CNPs of one
// flow share (Src, Dst, FlowID), so every switch hashes them onto one
// ECMP path; they leave the receiver by the port its data came in on;
// and they ride the control class, a FIFO that is never paused or
// dropped (fabric's TestControlFramesOfAFlowArriveInOrder). A sender
// therefore sees its cumulative ACK sequence in order, and both modes
// key on it (see Flow). IRN keeps one chunkSet scoreboard at each end.
package host

import (
	"fmt"

	"hpcc/internal/cc"
	"hpcc/internal/fabric"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// FlowControl selects the loss-recovery scheme.
type FlowControl int

const (
	// GoBackN is RoCEv2's default: an out-of-sequence arrival triggers
	// a NACK and the sender rewinds to the lost packet.
	GoBackN FlowControl = iota
	// IRN is selective repeat with a fixed one-BDP inflight cap, per
	// Mittal et al. (SIGCOMM 2018) as used in Figure 12.
	IRN
)

func (fc FlowControl) String() string {
	if fc == IRN {
		return "IRN"
	}
	return "GBN"
}

// Config sets host-wide transport behaviour.
type Config struct {
	// CC builds each new flow's congestion-control instance.
	CC cc.Factory
	// FlowCtl selects go-back-N or IRN recovery.
	FlowCtl FlowControl
	// INT adds the 42-byte INT header to data packets and echoes INT
	// records in ACKs (required by HPCC; off for the baselines).
	INT bool
	// BaseRTT is the network-wide base RTT T handed to CC (§3.2).
	// Topology builders set it from the fabric (SetBaseRTT).
	BaseRTT sim.Time
	// CompletedWindow, when positive, bounds the host's memory over
	// long campaigns: at most this many completed sender flows are
	// retained (a ring of recent completions for post-run inspection);
	// older ones are folded into aggregate counters (EvictedFlows) and
	// their sender QPs freed, so the QP slice stops growing with
	// campaign length. An evicted flow's *Flow — with its timer
	// callbacks and CC instance — is recycled by a later StartFlow, so
	// the flow lifecycle stops allocating once the window has filled:
	// a *Flow seen in onDone must not be kept past the callback unless
	// it was pinned (Flow.Pin). Zero retains every flow.
	CompletedWindow int
	// Seed feeds per-flow deterministic randomness.
	Seed int64
	// Pool recycles packet structs across the host's send and receive
	// paths. Topology builders share one pool per network; nil gets a
	// private pool.
	Pool *packet.Pool
}

const (
	// CNPInterval is the minimum gap between CNPs per flow at the
	// receiver (DCQCN's NP state machine).
	CNPInterval = 50 * sim.Microsecond
	// RTO is the retransmission-timeout backstop for lossy modes: one
	// 1 ms timer for GBN and IRN, so Figure 12's lossy columns differ
	// only in recovery (IRN's RTO_low/RTO_high would be a second timer).
	RTO = sim.Millisecond
)

// Host is a server endpoint with one or more NIC ports.
type Host struct {
	id    fabric.NodeID
	eng   *sim.Engine
	now   func() sim.Time // eng.Now bound once (a method value allocates), shared by every flow's cc.Env
	cfg   Config
	pool  *packet.Pool
	ports []*fabric.Port

	// Queue pairs, indexed by QPN (Packet.DstQP); slot 0 is never
	// issued. A sender QP holds its *Flow, a receive QP its recvState
	// in place. A slot answers a frame only while its flow ID equals
	// the frame's; freed QPNs wait on the free lists for reuse.
	sendQP   []*Flow
	sendFree []int32
	recv     []recvState
	recvFree []int32

	// wrapFree recycles the cc.Env.Schedule trampolines so timer-driven
	// CC schemes (DCQCN's per-flow clocks) do not allocate per tick.
	wrapFree []*schedWrap

	// Completed-flow retention ring (Config.CompletedWindow): the most
	// recent completions, plus aggregate counters for the flows already
	// evicted from it.
	retired     []*Flow
	retiredHead int
	evicted     int
	evictedPkts uint64

	// flowFree holds the sender flows evicted from the retention ring
	// (Config.CompletedWindow > 0), reused by StartFlow and Read in
	// place of an allocation.
	flowFree []*Flow
}

// schedWrap adapts one cc.Env.Schedule call onto the engine: it guards
// the callback behind the flow's liveness and follows it with trySend,
// like the old per-call closure did, but the wrap (and its bound run
// closure) returns to the host's free list on firing. gen is the
// flow's generation when the callback was armed: a timer armed for a
// finished transfer must not fire into the next one that reuses the
// same *Flow.
type schedWrap struct {
	f   *Flow
	gen uint32
	fn  func()
	run func()
}

func (h *Host) scheduleCC(f *Flow, d sim.Time, fn func()) {
	var w *schedWrap
	if n := len(h.wrapFree); n > 0 {
		w = h.wrapFree[n-1]
		h.wrapFree = h.wrapFree[:n-1]
	} else {
		w = &schedWrap{}
		w.run = func() {
			f, gen, fn := w.f, w.gen, w.fn
			w.f, w.fn = nil, nil
			h.wrapFree = append(h.wrapFree, w)
			if f.alive && f.gen == gen {
				fn()
				f.trySend()
			}
		}
	}
	w.f, w.gen, w.fn = f, f.gen, fn
	h.eng.After(d, w.run)
}

// New creates a host. Ports are attached afterwards (via topology
// builders) with AttachPort.
func New(eng *sim.Engine, id fabric.NodeID, cfg Config) *Host {
	pool := cfg.Pool
	if pool == nil {
		pool = packet.NewPool()
	}
	return &Host{
		id:     id,
		eng:    eng,
		now:    eng.Now,
		cfg:    cfg,
		pool:   pool,
		sendQP: make([]*Flow, 1), // QPN 0 is never issued
		recv:   make([]recvState, 1),
	}
}

// ID implements fabric.Node.
func (h *Host) ID() fabric.NodeID { return h.id }

// Config returns the host configuration.
func (h *Host) Config() Config { return h.cfg }

// AttachPort registers a NIC port created by fabric.Connect; its index
// must match the attachment order.
func (h *Host) AttachPort(p *fabric.Port) {
	if p.Index() != len(h.ports) {
		panic("host: port attached out of order")
	}
	h.ports = append(h.ports, p)
}

// SetBaseRTT sets the base RTT T that each new flow's CC sees; builders
// call it once the fabric's routes are known.
func (h *Host) SetBaseRTT(t sim.Time) { h.cfg.BaseRTT = t }

// Ports returns the host's NIC ports.
func (h *Host) Ports() []*fabric.Port { return h.ports }

// OnDequeue implements fabric.Node; hosts need no dequeue-time hooks.
func (h *Host) OnDequeue(p *packet.Packet, ingress int, from *fabric.Port) {}

// HandleArrival implements fabric.Node: dispatch by frame type. Every
// branch but Data terminally consumes the frame here, so it returns to
// the pool; a data packet is either recycled in place as its own ACK or
// released inside handleData.
func (h *Host) HandleArrival(p *packet.Packet, in *fabric.Port) {
	switch p.Type {
	case packet.PFC:
		in.SetPaused(p.PFCPause)
		h.pool.Put(p)
	case packet.Data:
		h.handleData(p, in)
	case packet.Ack:
		if f := h.sender(p); f != nil {
			f.handleAck(p)
		}
		h.pool.Put(p)
	case packet.Nack:
		if f := h.sender(p); f != nil {
			f.handleNack(p)
		}
		h.pool.Put(p)
	case packet.CNP:
		if f := h.sender(p); f != nil && !f.done {
			f.alg.OnCNP(h.eng.Now())
			f.trySend()
		}
		h.pool.Put(p)
	case packet.ReadReq:
		// RDMA READ responder: stream the requested bytes back on the
		// flow the READ reserved (Read). READ flow IDs are negative, so
		// the multi-homing hash must use the magnitude — a negative
		// remainder would index out of range.
		if f := h.sender(p); f != nil {
			port := int(p.FlowID) % len(h.ports)
			if port < 0 {
				port = -port
			}
			h.start(f, fabric.NodeID(p.Src), p.Seq, port, nil)
		}
		h.pool.Put(p)
	default:
		panic(fmt.Sprintf("host: unknown packet type %v", p.Type))
	}
}

// sender returns the flow bound to the sender QP a frame names, or nil
// when that QP is free or now bound to a later flow (a stale frame).
func (h *Host) sender(p *packet.Packet) *Flow {
	if uint(p.DstQP) < uint(len(h.sendQP)) {
		if f := h.sendQP[p.DstQP]; f != nil && f.ID == p.FlowID {
			return f
		}
	}
	return nil
}

// StartFlow creates and starts a sender flow of size bytes toward host
// dst, bound to the local port portIdx. Like RDMA connection setup, it
// opens the flow's receive QP at dst before the first frame; a
// zero-byte flow sends none and opens none. id must be unique
// network-wide and non-zero (topology.Network mints such IDs). onDone,
// if non-nil, fires at completion (all bytes cumulatively ACKed).
func (h *Host) StartFlow(id int32, dst *Host, size int64, portIdx int, onDone func(*Flow)) *Flow {
	f := h.bindFlow(id)
	if size > 0 {
		f.peerQP = dst.openRecv(id, f.qp)
	}
	return h.start(f, dst.id, size, portIdx, onDone)
}

// start launches the transfer of a flow bound by bindFlow.
func (h *Host) start(f *Flow, dst fabric.NodeID, size int64, portIdx int, onDone func(*Flow)) *Flow {
	port := h.ports[portIdx]
	f.dst, f.size, f.port = dst, size, port
	f.started, f.onDone, f.alive = h.eng.Now(), onDone, true
	f.env.LineRate = port.Rate()
	f.env.Seed = h.cfg.Seed ^ int64(f.ID)
	f.alg.Init(f.env)
	if size <= 0 {
		// Degenerate zero-byte transfer: complete immediately (after
		// the current event, so the caller sees the handle first).
		h.eng.After(0, func() { f.complete(h.eng.Now()) })
		return f
	}
	f.armRTO()
	f.trySend()
	return f
}

// bindFlow binds a blank flow for transfer id to a free sender QP.
func (h *Host) bindFlow(id int32) *Flow {
	f := h.getFlow()
	f.ID = id
	if n := len(h.sendFree); n > 0 {
		f.qp = h.sendFree[n-1]
		h.sendFree = h.sendFree[:n-1]
		h.sendQP[f.qp] = f
	} else {
		f.qp = int32(len(h.sendQP))
		h.sendQP = append(h.sendQP, f)
	}
	return f
}

// getFlow returns a blank flow for bindFlow, recycled when it can be: a
// recycled flow keeps everything newFlow bound to its pointer and has
// every other field reset by one whole-struct assignment.
func (h *Host) getFlow() *Flow {
	n := len(h.flowFree)
	if n == 0 {
		// With CompletedWindow > 0 a host allocates as many flows as its
		// peak live + retained count, then recycles.
		return h.newFlow()
	}
	f := h.flowFree[n-1]
	h.flowFree = h.flowFree[:n-1]
	// A new generation: CC timers the previous transfer left armed die
	// in their trampolines (scheduleCC).
	*f = Flow{host: h, sendFn: f.sendFn, rtoFn: f.rtoFn, alg: f.alg, env: f.env, gen: f.gen + 1, sacked: f.sacked[:0]}
	return f
}

// newFlow allocates a flow and what is bound to the *Flow rather than
// to one transfer: the timer callbacks, the CC instance and its
// environment (Schedule captures the pointer).
func (h *Host) newFlow() *Flow {
	f := &Flow{host: h, alg: h.cfg.CC()}
	f.sendFn = func() {
		f.sendEv = sim.Timer{}
		f.trySend()
	}
	f.rtoFn = f.onRTO
	f.env = cc.Env{
		Now:      h.now,
		Schedule: func(d sim.Time, fn func()) { h.scheduleCC(f, d, fn) },
		BaseRTT:  h.cfg.BaseRTT,
		MTU:      packet.DefaultMTU,
	}
	return f
}

// Read issues an RDMA READ: the responder streams size bytes back to
// this host as flow id. onDone fires here (at the requester) once all
// bytes have arrived in order. Like connection setup, Read reserves the
// responder's sender QP for the response, bound to a receive QP it
// opens here; the request, addressed to that sender QP, rides the
// control class.
func (h *Host) Read(id int32, responder *Host, size int64, portIdx int, onDone func()) {
	f := responder.bindFlow(id)
	f.peerQP = h.openRecv(id, f.qp)
	h.recv[f.peerQP].readSize, h.recv[f.peerQP].readDone = size, onDone
	req := h.pool.Get()
	req.Type = packet.ReadReq
	req.FlowID = id
	req.DstQP = f.qp
	req.Src = int32(h.id)
	req.Dst = int32(responder.id)
	req.Size = packet.CtrlBytes
	req.Seq = size
	h.ports[portIdx].Enqueue(req, -1)
}

// Flows returns the host's sender flows by ID (live and retained
// completed ones; with Config.CompletedWindow set, older completions
// are evicted into the EvictedFlows aggregate). The map is built from
// the sender QPs on each call.
func (h *Host) Flows() map[int32]*Flow {
	m := make(map[int32]*Flow, len(h.sendQP))
	for _, f := range h.sendQP {
		if f != nil && f.port != nil { // a READ's reserved flow has not started
			m[f.ID] = f
		}
	}
	return m
}

// EvictedFlows returns how many completed flows were evicted from the
// retention ring under Config.CompletedWindow, and their total data
// packets sent (retransmissions included) — so whole-run accounting
// stays exact under bounded memory.
func (h *Host) EvictedFlows() (flows int, pkts uint64) { return h.evicted, h.evictedPkts }

// noteFlowDone records a completion in the retention ring and evicts
// the oldest retained completion once the window is full. Called after
// the flow's onDone observers ran; an evicted flow's stats are folded
// into the aggregate counters first, so nothing is lost. The evicted
// flow's sender QP is freed, and its *Flow goes to the free list —
// unless a handle to it left the simulator (pinned).
func (h *Host) noteFlowDone(f *Flow) {
	w := h.cfg.CompletedWindow
	if w <= 0 {
		return
	}
	if len(h.retired) < w {
		h.retired = append(h.retired, f)
		return
	}
	g := h.retired[h.retiredHead]
	h.retired[h.retiredHead] = f
	h.retiredHead++
	if h.retiredHead == len(h.retired) {
		h.retiredHead = 0
	}
	h.evicted++
	h.evictedPkts += g.pktsSent
	h.sendQP[g.qp] = nil
	h.sendFree = append(h.sendFree, g.qp)
	if !g.pinned {
		// The free list grows to the host's peak live flow count, then
		// recycles in place.
		h.flowFree = append(h.flowFree, g)
	}
}
