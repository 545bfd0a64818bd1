package experiment

import (
	"fmt"
	"math"

	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// Topo is a buildable topology spec. Every fabric a scenario can run
// on — paper presets and user-composed graphs — is a topology.Spec
// value, so there is exactly one build path and no per-kind switch.
type Topo = topology.Spec

// StarTopo is the §5.4 fixture: n hosts at 100 Gbps, 1 µs links.
func StarTopo(n int) Topo {
	return topology.StarSpec{N: n, HostRate: 100 * sim.Gbps, Delay: sim.Microsecond}
}

// PodTopo is the §5.2 testbed PoD.
func PodTopo(spec topology.PodSpec) Topo { return spec }

// FatTreeTopo is the §5.3 simulation fabric.
func FatTreeTopo(spec topology.FatTreeSpec) Topo { return spec }

// ParkingLotTopo is the §3.2/Appendix-A multi-bottleneck chain:
// segments+1 switches in a line whose inter-switch links run at the
// host rate, so every segment a flow crosses is a potential bottleneck.
func ParkingLotTopo(segments int, rate sim.Rate) Topo {
	return topology.ParkingLotSpec{Segments: segments, HostRate: rate, Delay: sim.Microsecond}
}

// FlowEvent is one completed transfer, as streamed to Obs.OnFlow: the
// endpoint host indices, the start time, and the FCT record added to
// the result set. For RDMA READs (Read true), Src is the responder
// (the data source) and Dst the requester.
type FlowEvent struct {
	Src, Dst int
	Read     bool
	Started  sim.Time
	Rec      stats.FCTRecord
}

// Obs carries the optional observer callbacks a scenario attaches to a
// run: per-flow FCT records, periodic queue samples, PFC pause
// transitions, and — in sketch-stats mode — closed interval windows of
// queue statistics. The public API's Observer values and
// Network.TraceQueues ride these hooks.
type Obs struct {
	OnFlow  func(FlowEvent)
	OnQueue func(stats.TimePoint)
	OnPFC   func(stats.PFCEvent)
	// OnQueueFlush receives one summary per closed queue window
	// (LoadScenario.FlushEvery ticks each). Window summaries come from
	// an interval sketch in either retention mode, so attaching a flush
	// consumer never changes the run's result statistics.
	OnQueueFlush func(stats.QueueFlush)
}

// LoadScenario is the common "composable traffic on a topology"
// experiment: a scheme, a topology spec, and any number of traffic
// generators installed on the same fabric. Every figure and the public
// Experiment API build their fabric from one — the load figures through
// RunLoad, Figure 1 and the micro-benchmarks through StartManual — so
// one function (build) maps a scheme to switch and host settings.
type LoadScenario struct {
	Scheme Scheme
	Topo   Topo

	// Traffic generators are installed in order; generator i draws its
	// randomness from Seed+i, so a scenario's output is independent of
	// everything but the specs themselves.
	Traffic []workload.Generator

	MaxFlows int      // default per-generator cap on arrivals (bounds runtime)
	Until    sim.Time // arrival window end
	Drain    sim.Time // extra time for in-flight flows to finish

	FlowCtl host.FlowControl
	// PFC enables lossless mode; when false, switches drop with the
	// footnote-6 dynamic egress threshold (α = 1) and hosts recover.
	PFC bool

	Seed        int64
	BufferBytes int64 // switch buffer (default 32 MB)
	// INTQuantize rounds every INT stamp through the Figure-7 wire
	// precision (ASIC emulation ablation).
	INTQuantize bool

	// CompletedWindow, when positive, bounds per-host memory on long
	// runs: each host retains at most this many completed flows, evicting
	// the oldest into aggregate counters and recycling its *host.Flow
	// for a later flow (host.Config.CompletedWindow) — so a *host.Flow
	// seen in a generator's OnDone must not be kept past the callback.
	CompletedWindow int

	// SketchStats switches result statistics to streaming mode: FCT
	// records and queue samples are not retained; every observation
	// streams into mergeable quantile sketches instead (per-size-bucket
	// slowdowns, short-flow latency, per-port queue depth), so retained
	// stat memory is O(sketch buckets) regardless of flow count or
	// horizon. Quantiles come out within StatsAccuracy of the exact
	// percentiles; LoadResult.QueueKB and FCT.Records stay empty. The
	// default (false) retains everything, exactly as before — goldens
	// are byte-identical.
	SketchStats bool
	// StatsAccuracy is the sketches' relative accuracy (<= 0 means the
	// 1% default, stats.DefaultRelativeAccuracy).
	StatsAccuracy float64
	// FCTBucketEdges are the flow-size bucket edges the streaming FCT
	// sketches are keyed by (nil means stats.WebSearchEdges). Streaming
	// results can only be bucketed by these edges.
	FCTBucketEdges []int64
	// FlushEvery, with SketchStats and Obs.OnQueueFlush, closes a queue
	// window every FlushEvery sampling ticks and reports its summary —
	// the live-progress feed of the streaming observer.
	FlushEvery int

	// Obs streams per-flow, queue and PFC events to observers.
	Obs Obs
}

// Validate rejects parameters that have no meaning rather than letting
// the run return nonsense: a negative arrival window, drain or flow cap
// (zero means the default), and a sketch accuracy that is NaN or ≥ 1,
// where the sketch's bucket ratio (1+α)/(1−α) is no longer finite and
// positive. RunLoad and the public hpcc.Experiment both call it.
func (s *LoadScenario) Validate() error {
	switch {
	case s.Until < 0:
		return fmt.Errorf("experiment: negative arrival window %v", s.Until)
	case s.Drain < 0:
		return fmt.Errorf("experiment: negative drain %v", s.Drain)
	case s.MaxFlows < 0:
		return fmt.Errorf("experiment: negative flow cap %d", s.MaxFlows)
	case math.IsNaN(s.StatsAccuracy) || s.StatsAccuracy >= 1:
		return fmt.Errorf("experiment: stats accuracy %v, want below 1 (or <= 0 for the default)", s.StatsAccuracy)
	}
	return nil
}

func (s *LoadScenario) normalize() {
	if s.Until == 0 {
		s.Until = 5 * sim.Millisecond
	}
	if s.Drain == 0 {
		s.Drain = 20 * sim.Millisecond
	}
	if s.MaxFlows == 0 {
		s.MaxFlows = 1000
	}
	if s.FlushEvery == 0 {
		s.FlushEvery = 100 // one window per ms of QueueSample ticks
	}
}

// QueueSample is how often a load run samples its edge-port queues, and
// Network.TraceQueues's default interval.
const QueueSample = 10 * sim.Microsecond

// BufferFor scales the paper's 32 MB switch buffer with the fabric
// size so PFC dynamics survive scaled-down (CI) runs: the paper's
// 320-host FatTree keeps the full 32 MB; a 32-host run gets 3.2 MB,
// floored at 2 MB.
func BufferFor(hosts int) int64 {
	b := int64(32) << 20 * int64(hosts) / 320
	if b < 2<<20 {
		b = 2 << 20
	}
	if b > 32<<20 {
		b = 32 << 20
	}
	return b
}

// LoadResult carries everything the load-scenario figures report.
type LoadResult struct {
	Scheme  string
	FCT     stats.FCTSet
	Queue   stats.Summary // per-port queue-length samples, bytes
	QueueKB []float64     // raw samples in KB (for CDFs)

	PauseFrac float64 // fraction of (port × time) spent PFC-paused
	Drops     uint64
	Started   int // flows started
	Censored  int // flows still unfinished at the horizon
	Elapsed   sim.Time

	// DataPackets counts data packets emitted by every sender flow
	// (retransmissions included); PortPackets counts packets serialized
	// across every port in the fabric (hop count). Both feed the bench
	// ledger's per-packet metrics.
	DataPackets uint64
	PortPackets uint64

	// RetainedStatBytes is the run's logical retained-statistics
	// footprint: FCT retention plus pooled queue samples (sketch buckets
	// in streaming mode). Deterministic — the memory-regression gate
	// compares it between runs.
	RetainedStatBytes int64

	// Events counts the engine events fired and PendingHighWater is the
	// most the engine had pending at once, every frame in flight on a
	// wire included. Deliveries of those events were frames reaching the
	// far end of a link (sim.Engine.Deliver) and OffLane of them fit none
	// of the engine's lanes and went through its heap. They describe the
	// execution rather than the simulated network, and are as
	// deterministic as the rest of the result.
	Events           uint64
	PendingHighWater int
	Deliveries       uint64
	OffLane          uint64
}

// ShortFlowP95Latency returns the 95th-percentile FCT (µs) of flows no
// larger than limit bytes — the "95pct-latency" bars of Figures 2b/11.
// Streaming runs track the fixed stats.ShortFlowLimit class, whatever
// limit is passed.
func (r *LoadResult) ShortFlowP95Latency(limit int64) float64 {
	if r.FCT.Streaming() {
		return r.FCT.ShortLatencyQuantile(95)
	}
	var lat []float64
	for _, rec := range r.FCT.Records {
		if rec.Size <= limit {
			lat = append(lat, rec.FCT.Microseconds())
		}
	}
	return stats.Percentile(lat, 95)
}

// build constructs the scenario's fabric on eng.
func (s *LoadScenario) build(eng *sim.Engine) *topology.Network {
	scfg := fabric.SwitchConfig{
		BufferBytes: s.BufferBytes,
		PFCEnabled:  s.PFC,
		INTEnabled:  s.Scheme.INT,
		INTQuantize: s.INTQuantize,
		ECNEnabled:  s.Scheme.ECN,
		Seed:        s.Seed,
	}
	if !s.PFC {
		scfg.LossyEgressAlpha = 1 // paper footnote 6
	}
	if s.Scheme.ECN {
		rate := s.Topo.Rate()
		scfg.KMin = s.Scheme.Kmin(rate)
		scfg.KMax = s.Scheme.Kmax(rate)
	}
	hcfg := host.Config{
		CC:              s.Scheme.Factory,
		FlowCtl:         s.FlowCtl,
		INT:             s.Scheme.INT,
		BaseRTT:         s.Topo.BaseRTT(),
		Seed:            s.Seed,
		CompletedWindow: s.CompletedWindow,
	}
	return s.Topo.Build(eng, hcfg, scfg)
}

// start builds the normalized scenario's fabric on eng, installs its
// generators and PFC watch, then attaches the queue monitor. Every
// completion becomes one FCTRecord — appended to fct when non-nil
// (RunLoad's aggregate) and streamed to Obs.OnFlow — so the aggregate
// and the observer stream can never disagree. RunLoad (fct set) always
// gets a monitor; StartManual only when an observer asks for queue
// samples, and a nil monitor otherwise.
func (s *LoadScenario) start(eng *sim.Engine, fct *stats.FCTSet) (*ManualNet, *stats.QueueMonitor) {
	nw := s.build(eng)
	m := &ManualNet{
		Network: nw,
		Obs:     s.Obs,
		Until:   s.Until,
		eng:     eng,
		rate:    s.Topo.Rate(),
		baseRTT: s.Topo.BaseRTT(),
		intHdr:  s.Scheme.INT,
	}
	emit := func(ev FlowEvent) {
		if fct != nil {
			fct.Add(ev.Rec)
		}
		if s.Obs.OnFlow != nil {
			s.Obs.OnFlow(ev)
		}
	}
	env := workload.Env{
		HostRate: m.rate,
		Until:    s.Until,
		MaxFlows: s.MaxFlows,
		OnDone:   func(f *host.Flow) { emit(m.Completed(f)) },
		OnRead: func(req, resp int, size int64, elapsed sim.Time) {
			emit(m.ReadCompleted(req, resp, size, elapsed))
		},
	}
	for i, g := range s.Traffic {
		env.Seed = s.Seed + int64(i)
		env.Key = sim.ArrivalKey(i)
		g.Install(nw, env)
	}
	if s.Obs.OnPFC != nil {
		stats.WatchPFC(eng, nw.Switches, s.Obs.OnPFC)
	}
	if fct == nil && s.Obs.OnQueue == nil && s.Obs.OnQueueFlush == nil {
		return m, nil
	}
	mon := stats.NewQueueMonitor(eng, nw.EdgePorts(), fabric.PrioData, QueueSample, s.Until)
	mon.OnSample = s.Obs.OnQueue
	if s.SketchStats {
		mon.EnableSketch(s.StatsAccuracy)
	}
	if s.Obs.OnQueueFlush != nil {
		mon.FlushEvery = s.FlushEvery
		mon.OnFlush = s.Obs.OnQueueFlush
	}
	return m, mon
}

// RunLoad executes the scenario to its horizon and collects results.
// The error is Validate's: the scenario is refused before anything is
// built.
func RunLoad(s LoadScenario) (*LoadResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.normalize()
	eng := sim.NewEngine()
	res := &LoadResult{Scheme: s.Scheme.Name}
	if s.SketchStats {
		res.FCT = stats.NewStreamingFCT(s.FCTBucketEdges, s.StatsAccuracy)
	}
	m, mon := s.start(eng, &res.FCT)

	eng.RunUntil(s.Until + s.Drain)
	mon.Stop()

	if s.SketchStats {
		res.Queue = mon.Summary()
	} else {
		res.Queue = stats.Summarize(mon.Samples)
		res.QueueKB = make([]float64, len(mon.Samples))
		for i, v := range mon.Samples {
			res.QueueKB[i] = v / 1024
		}
	}
	res.RetainedStatBytes = res.FCT.RetainedBytes() + mon.RetainedBytes()
	collectFabric(res, m.Network, s.Until+s.Drain)
	res.Events = eng.Fired()
	res.PendingHighWater = eng.PendingHighWater()
	res.Deliveries = eng.Delivered()
	res.OffLane = eng.OffLane()
	res.Elapsed = eng.Now()
	return res, nil
}

// mustRunLoad is RunLoad for the figure and sweep drivers, whose
// scenarios are program constants: a run error there is a programming
// error, not an input error, so it panics rather than threading error
// returns through every figure. User-supplied specs (the public
// Experiment surface, cmd flags) go through RunLoad and get the error.
func mustRunLoad(s LoadScenario) *LoadResult {
	res, err := RunLoad(s)
	if err != nil {
		panic("experiment: " + err.Error())
	}
	return res
}

// collectFabric gathers the post-run fabric counters: PFC pause, drops,
// per-flow and per-port packet counts (including flows already evicted
// into host aggregate counters).
func collectFabric(res *LoadResult, nw *topology.Network, elapsed sim.Time) {
	res.PauseFrac = stats.PFCPauseFraction(nw.Switches, fabric.PrioData, elapsed)
	res.Drops = nw.TotalDrops()
	for _, h := range nw.Hosts {
		evicted, pkts := h.EvictedFlows()
		res.Started += evicted
		res.DataPackets += pkts
		for _, f := range h.Flows() {
			res.Started++
			res.DataPackets += f.PacketsSent()
			if !f.Done() {
				res.Censored++
			}
		}
		for _, p := range h.Ports() {
			res.PortPackets += p.PacketsSent()
		}
	}
	for _, p := range nw.SwitchPorts() {
		res.PortPackets += p.PacketsSent()
	}
}

// ManualNet is a built-but-not-run scenario: the fabric with traffic
// generators and observers installed, for callers that drive virtual
// time themselves (the public Network surface). It makes every
// completion record, generated or manual, so all are measured alike.
type ManualNet struct {
	Network *topology.Network
	Obs     Obs
	Until   sim.Time

	eng     *sim.Engine
	rate    sim.Rate
	baseRTT sim.Time
	intHdr  bool
}

// StartManual builds the scenario's fabric on eng, installs its
// traffic and observers, and hands control back without running.
// Completed generator flows (and READs) stream to Obs.OnFlow; no
// aggregate result is collected.
func StartManual(eng *sim.Engine, s LoadScenario) *ManualNet {
	s.normalize()
	m, _ := s.start(eng, nil)
	return m
}

// Completed is the completion event of flow f: its endpoints, its
// start, and its FCT against the ideal FCT on an empty fabric.
func (m *ManualNet) Completed(f *host.Flow) FlowEvent {
	return FlowEvent{
		Src:     m.Network.HostIndex(f.Host().ID()),
		Dst:     m.Network.HostIndex(f.Dst()),
		Started: f.Started(),
		Rec:     m.record(f.Size(), f.FCT()),
	}
}

// ReadCompleted is the completion event, now, of a READ of size bytes
// that requester issued to responder elapsed ago. The response crosses
// the fabric like a flow, but the clock starts at the request, so the
// ideal adds the request's one-way trip.
func (m *ManualNet) ReadCompleted(requester, responder int, size int64, elapsed sim.Time) FlowEvent {
	rec := m.record(size, elapsed)
	rec.Ideal += m.baseRTT / 2
	return FlowEvent{Src: responder, Dst: requester, Read: true, Started: m.eng.Now() - elapsed, Rec: rec}
}

func (m *ManualNet) record(size int64, fct sim.Time) stats.FCTRecord {
	return stats.FCTRecord{
		Size:  size,
		FCT:   fct,
		Ideal: stats.IdealFCT(size, m.rate, m.baseRTT, packet.DefaultMTU, m.intHdr),
	}
}
