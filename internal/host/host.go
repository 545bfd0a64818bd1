// Package host models the RDMA NIC endpoints: per-flow queue pairs with
// sending windows and packet pacing (§3.2), receiver-side ACK/NACK/CNP
// generation, and the two loss-recovery modes the paper evaluates —
// go-back-N (RoCEv2 default) and IRN-style selective repeat (§5.3,
// Figure 12).
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
	// dropped from the flow map, so the map stops growing with
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
	// RTO is the retransmission-timeout backstop for lossy modes.
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
	flows map[int32]*Flow
	recv  map[int32]*recvState

	// RDMA READ requester state: flow ID -> (expected bytes, callback).
	reads map[int32]*pendingRead

	// wrapFree recycles the cc.Env.Schedule trampolines so timer-driven
	// CC schemes (DCQCN's per-flow clocks) do not allocate per tick.
	wrapFree []*schedWrap

	// doneRing remembers the most recently completed inbound flows so a
	// straggler duplicate (e.g. an RTO retransmission that was still in
	// flight when the original copy finished the flow) is dropped
	// instead of recreating — and then leaking — a recvState. Flow IDs
	// are never reused network-wide, so a hit always means straggler.
	doneRing [doneRingSize]int32
	doneHead int

	// Completed-flow retention ring (Config.CompletedWindow): the IDs
	// of the most recent completions, plus aggregate counters for the
	// flows already evicted from the map.
	retired     []int32
	retiredHead int
	evicted     int
	evictedPkts uint64

	// Free lists (Config.CompletedWindow > 0): sender flows evicted
	// from the retention ring and receiver states freed at FlowEnd,
	// reused by StartFlow and handleData in place of an allocation.
	flowFree []*Flow
	recvFree []*recvState
}

// doneRingSize bounds the completed-inbound-flow memory (power of two).
const doneRingSize = 64

func (h *Host) noteRecvDone(flowID int32) {
	h.doneRing[h.doneHead&(doneRingSize-1)] = flowID
	h.doneHead++
}

// recentlyRecvDone reports whether flowID completed within the last
// doneRingSize inbound completions. Only consulted on the per-flow slow
// path (no receiver state yet). Flow ID 0 is indistinguishable from an
// empty slot and is never treated as recently done.
func (h *Host) recentlyRecvDone(flowID int32) bool {
	if flowID == 0 {
		return false
	}
	for _, id := range h.doneRing {
		if id == flowID {
			return true
		}
	}
	return false
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

type pendingRead struct {
	size   int64
	onDone func()
}

// New creates a host. Ports are attached afterwards (via topology
// builders) with AttachPort.
func New(eng *sim.Engine, id fabric.NodeID, cfg Config) *Host {
	pool := cfg.Pool
	if pool == nil {
		pool = packet.NewPool()
	}
	return &Host{
		id:    id,
		eng:   eng,
		now:   eng.Now,
		cfg:   cfg,
		pool:  pool,
		flows: make(map[int32]*Flow),
		recv:  make(map[int32]*recvState),
		reads: make(map[int32]*pendingRead),
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
		in.SetPaused(p.PFCPrio, p.PFCPause)
		h.pool.Put(p)
	case packet.Data:
		h.handleData(p, in)
	case packet.Ack:
		if f := h.flows[p.FlowID]; f != nil {
			f.handleAck(p)
		}
		h.pool.Put(p)
	case packet.Nack:
		if f := h.flows[p.FlowID]; f != nil {
			f.handleNack(p)
		}
		h.pool.Put(p)
	case packet.CNP:
		if f := h.flows[p.FlowID]; f != nil && !f.done {
			f.alg.OnCNP(h.eng.Now())
			f.trySend()
		}
		h.pool.Put(p)
	case packet.ReadReq:
		// RDMA READ responder: stream the requested bytes back as a
		// plain data flow owned by this host. READ flow IDs are
		// negative, so the multi-homing hash must use the magnitude —
		// a negative remainder would index out of range.
		port := int(p.FlowID) % len(h.ports)
		if port < 0 {
			port = -port
		}
		h.StartFlow(p.FlowID, fabric.NodeID(p.Src), p.Seq, port, nil)
		h.pool.Put(p)
	default:
		panic(fmt.Sprintf("host: unknown packet type %v", p.Type))
	}
}

// StartFlow creates and starts a sender flow of size bytes toward dst,
// bound to the local port portIdx. id must be unique network-wide.
// onDone, if non-nil, fires at completion (all bytes cumulatively
// ACKed).
func (h *Host) StartFlow(id int32, dst fabric.NodeID, size int64, portIdx int, onDone func(*Flow)) *Flow {
	if _, dup := h.flows[id]; dup {
		panic(fmt.Sprintf("host: duplicate flow id %d", id))
	}
	port := h.ports[portIdx]
	f := h.getFlow()
	f.ID, f.dst, f.size, f.port = id, dst, size, port
	f.started, f.onDone, f.alive = h.eng.Now(), onDone, true
	f.env.LineRate = port.Rate()
	f.env.Seed = h.cfg.Seed ^ int64(id)
	if h.cfg.FlowCtl == IRN {
		f.sacked = make(map[int64]int32)
		f.rtx = make(map[int64]int32)
		f.irnCap = f.env.BDP()
	}
	f.alg.Init(f.env)
	h.flows[id] = f
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

// getFlow returns a blank flow for StartFlow, recycled when it can be:
// a recycled flow keeps everything newFlow bound to its pointer and has
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
	*f = Flow{host: h, sendFn: f.sendFn, rtoFn: f.rtoFn, alg: f.alg, env: f.env, gen: f.gen + 1}
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
// bytes have arrived in order. The request rides the control class.
func (h *Host) Read(id int32, responder fabric.NodeID, size int64, portIdx int, onDone func()) {
	h.reads[id] = &pendingRead{size: size, onDone: onDone}
	req := h.pool.Get()
	req.Type = packet.ReadReq
	req.FlowID = id
	req.Src = int32(h.id)
	req.Dst = int32(responder)
	req.Prio = fabric.PrioCtrl
	req.Size = packet.CtrlBytes
	req.Seq = size
	h.ports[portIdx].Enqueue(req, -1)
}

// Flows returns the host's sender flows (live and retained completed
// ones; with Config.CompletedWindow set, older completions are evicted
// into the EvictedFlows aggregate).
func (h *Host) Flows() map[int32]*Flow { return h.flows }

// EvictedFlows returns how many completed flows were evicted from the
// flow map under Config.CompletedWindow, and their total data packets
// sent (retransmissions included) — so whole-run accounting stays exact
// under bounded memory.
func (h *Host) EvictedFlows() (flows int, pkts uint64) { return h.evicted, h.evictedPkts }

// noteFlowDone records a completion in the retention ring and evicts
// the oldest retained completion once the window is full. Called after
// the flow's onDone observers ran; an evicted flow's stats are folded
// into the aggregate counters first, so nothing is lost. The evicted
// *Flow then goes to the free list — unless a handle to it left the
// simulator (pinned).
func (h *Host) noteFlowDone(f *Flow) {
	w := h.cfg.CompletedWindow
	if w <= 0 {
		return
	}
	if len(h.retired) < w {
		h.retired = append(h.retired, f.ID)
		return
	}
	old := h.retired[h.retiredHead]
	h.retired[h.retiredHead] = f.ID
	h.retiredHead++
	if h.retiredHead == len(h.retired) {
		h.retiredHead = 0
	}
	if g := h.flows[old]; g != nil && g.done {
		h.evicted++
		h.evictedPkts += g.pktsSent
		if !g.pinned {
			// The free list grows to the host's peak live flow count,
			// then recycles in place.
			h.flowFree = append(h.flowFree, g)
		}
		delete(h.flows, old)
	}
}
