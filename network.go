package hpcc

import (
	"time"

	"hpcc/internal/experiment"
	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/sim"
	"hpcc/internal/stats"
)

// SchemeNames lists the congestion-control schemes this library
// implements, in the paper's Figure-11 order plus the HPCC ablation
// variants.
func SchemeNames() []string {
	return []string{
		"hpcc", "dcqcn", "timely", "dcqcn+win", "timely+win", "dctcp",
		"hpcc-rxrate", "hpcc-perack", "hpcc-perrtt",
	}
}

// Network is a running simulated fabric accepting explicit flows — the
// micro-benchmark surface of the library. Experiment.Start builds one.
type Network struct {
	eng    *sim.Engine
	m      *experiment.ManualNet
	scheme string
	rtt    sim.Time
}

// Flow is a handle to one transfer on a Network.
type Flow struct {
	inner *host.Flow
	net   *Network
	// onProgress buffers a callback registered before a scheduled flow
	// materializes; StartFlowAt's closure attaches it at start time.
	onProgress func(*host.Flow, int64)
}

// NumHosts returns the host count.
func (n *Network) NumHosts() int { return len(n.m.Network.Hosts) }

// Scheme returns the active congestion-control name.
func (n *Network) Scheme() string { return n.scheme }

// BaseRTT returns the network's base round-trip constant T.
func (n *Network) BaseRTT() time.Duration { return fromSim(n.rtt) }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return fromSim(n.eng.Now()) }

// flowDone returns the completion callback wiring manual flows into
// the attached flow observers (nil when none are attached).
func (n *Network) flowDone() func(*host.Flow) {
	if n.m.Obs.OnFlow == nil {
		return nil
	}
	return func(f *host.Flow) { n.m.Obs.OnFlow(n.m.Completed(f)) }
}

// startPinned starts a flow whose handle is about to leave the
// simulator: under CompletedFlowWindow the host must not recycle it.
func (n *Network) startPinned(src, dst int, size int64) *host.Flow {
	f := n.m.Network.StartFlow(src, dst, size, n.flowDone())
	f.Pin()
	return f
}

// StartFlow launches size bytes from host src to host dst immediately.
func (n *Network) StartFlow(src, dst int, size int64) *Flow {
	return &Flow{inner: n.startPinned(src, dst, size), net: n}
}

// StartFlowAt schedules a flow to begin after delay d. The returned
// handle is valid immediately but idle until the start time — it costs
// no simulation events until the flow starts. A d ≤ 0 starts the flow
// at the current time, as a Schedule arrival at or before now does.
func (n *Network) StartFlowAt(d time.Duration, src, dst int, size int64) *Flow {
	f := &Flow{net: n}
	n.eng.After(toSim(max(d, 0)), func() {
		f.inner = n.startPinned(src, dst, size)
		if f.onProgress != nil {
			f.inner.OnProgress = f.onProgress
		}
	})
	return f
}

// Read issues an RDMA READ (§4.2): host requester pulls size bytes from
// host responder; done fires when every byte has arrived in order at
// the requester. Completions also stream to any attached FlowObserver
// (Src = responder, Dst = requester).
func (n *Network) Read(requester, responder int, size int64, done func()) {
	issued := n.eng.Now()
	n.m.Network.StartRead(requester, responder, size, func() {
		if n.m.Obs.OnFlow != nil {
			n.m.Obs.OnFlow(n.m.ReadCompleted(requester, responder, size, n.eng.Now()-issued))
		}
		if done != nil {
			done()
		}
	})
}

// Run advances virtual time by d.
func (n *Network) Run(d time.Duration) { n.eng.RunUntil(n.eng.Now() + toSim(d)) }

// RunUntilIdle runs until no simulation events remain (all finite flows
// done). Networks with unfinished long-running flows never go idle; use
// Run instead.
func (n *Network) RunUntilIdle() { n.eng.Run() }

// QueuePoint is one sample of the total switch-queue backlog.
type QueuePoint struct {
	At    time.Duration
	Bytes int64
}

// TraceQueues installs a backlog sampler over all switch egress ports,
// taking one sample every interval for dur from now and streaming each
// into the returned slice as the simulation runs (the same observer
// feed QueueObserver exposes); read the result after Run. An interval
// of 0 means QueueObserver's 10 µs period; a negative interval, or a
// dur ≤ 0, takes no samples.
func (n *Network) TraceQueues(interval, dur time.Duration) *[]QueuePoint {
	out := &[]QueuePoint{}
	if interval < 0 || dur <= 0 {
		return out
	}
	every := toSim(interval)
	if every == 0 {
		every = experiment.QueueSample
	}
	mon := stats.NewQueueMonitor(n.eng, n.m.Network.SwitchPorts(), fabric.PrioData, every, n.eng.Now()+toSim(dur))
	mon.OnSample = func(tp stats.TimePoint) {
		*out = append(*out, QueuePoint{At: fromSim(tp.T), Bytes: int64(tp.V)})
	}
	return out
}

// Drops returns total packets dropped across the fabric so far.
func (n *Network) Drops() uint64 { return n.m.Network.TotalDrops() }

// PFCPauseFraction returns the fraction of (switch-port × time) spent
// paused so far.
func (n *Network) PFCPauseFraction() float64 {
	return stats.PFCPauseFraction(n.m.Network.Switches, fabric.PrioData, n.eng.Now())
}

// Done reports whether the flow completed (every byte acknowledged).
func (f *Flow) Done() bool { return f.inner != nil && f.inner.Done() }

// FCT returns the flow completion time (zero until Done).
func (f *Flow) FCT() time.Duration {
	if f.inner == nil || !f.inner.Done() {
		return 0
	}
	return fromSim(f.inner.FCT())
}

// Acked returns cumulatively acknowledged bytes.
func (f *Flow) Acked() int64 {
	if f.inner == nil {
		return 0
	}
	return f.inner.Acked()
}

// Slowdown returns FCT normalized by the flow's ideal FCT on an empty
// network (valid once Done).
func (f *Flow) Slowdown() float64 {
	if f.inner == nil || !f.inner.Done() {
		return 0
	}
	return f.net.m.Completed(f.inner).Rec.Slowdown()
}

// Stop aborts the flow (for long-running flows that "leave").
func (f *Flow) Stop() {
	if f.inner != nil {
		f.inner.Abort()
	}
}

// OnProgress registers a callback observing each cumulative-ACK
// advance (newly acknowledged bytes). Call before the flow starts
// moving for a complete trace. On a scheduled flow the callback is
// held and attached by the start closure, costing zero events while
// the flow waits.
func (f *Flow) OnProgress(fn func(newlyAcked int64)) {
	wrapped := func(_ *host.Flow, n int64) { fn(n) }
	if f.inner != nil {
		f.inner.OnProgress = wrapped
		return
	}
	f.onProgress = wrapped
}
