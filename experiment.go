package hpcc

import (
	"fmt"
	"time"

	"hpcc/internal/experiment"
	"hpcc/internal/sim"
	"hpcc/internal/workload"
)

// Experiment composes a simulation from first-class spec values: a
// congestion-control scheme, a Topology, any number of Traffic
// sources, and Observers streaming events out.
//
//	res, err := hpcc.Experiment{
//		Scheme:   "hpcc",
//		Topology: hpcc.FatTree{},
//		Traffic: []hpcc.Traffic{
//			hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: 0.5},
//			hpcc.Incast{FanIn: 16, FlowSizeBytes: 500_000, LoadFraction: 0.02},
//		},
//		Horizon: 10 * time.Millisecond,
//	}.Run()
//
// Determinism: everything derives from Seed; traffic source i draws
// from Seed+i. Two runs of an identical Experiment produce identical
// results.
type Experiment struct {
	// Scheme is the congestion control (see SchemeNames). Default
	// "hpcc".
	Scheme string
	// Topology is the fabric spec. Default Pod{} (the paper's testbed).
	Topology Topology
	// Traffic sources are installed in order on the built fabric.
	// Leave empty to drive flows manually via Start.
	Traffic []Traffic
	// Horizon is the traffic arrival window in virtual time (default
	// 5 ms). Arrivals stop at the horizon; flows in flight drain.
	Horizon time.Duration
	// Drain is extra virtual time for in-flight flows (default 20 ms).
	Drain time.Duration
	// MaxFlows is the default per-source arrival cap (default 1000);
	// sources with their own cap override it.
	MaxFlows int
	// Lossless enables PFC (default true). When false, switches drop
	// and hosts recover via go-back-N.
	Lossless *bool
	// BucketEdges are the flow-size bucket edges for the result's
	// per-bucket FCT statistics. Default: the natural edges of the
	// first Poisson or RPC source's CDF, else the WebSearch figure
	// edges.
	BucketEdges []int64
	// Observers stream per-flow records, queue samples and PFC events
	// while the simulation runs.
	Observers []Observer
	// CompletedFlowWindow, when positive, bounds per-host memory over
	// long campaigns: each host retains at most this many completed
	// flows, folding older ones into aggregate counters. Results are
	// unchanged; only post-run per-flow inspection is truncated. It
	// also makes the flow lifecycle allocation-free: the hosts recycle
	// the state of evicted Traffic-generated flows into later ones.
	// Flow handles returned by Network.StartFlow/StartFlowAt are exempt
	// and stay valid for as long as the caller holds them.
	CompletedFlowWindow int
	// SketchStats switches result statistics to streaming mode: instead
	// of retaining every FCT record and queue sample, observations
	// stream into mergeable DDSketch-style quantile sketches
	// (per-size-bucket slowdowns, the short-flow class, per-port queue
	// depth), so retained stat memory is O(sketch buckets) — a few KB —
	// regardless of flow count or horizon. Every reported percentile is
	// within StatsAccuracy of the exact one. The default (false)
	// retains everything and reproduces historical results
	// byte-for-byte.
	SketchStats bool
	// StatsAccuracy is the sketches' relative accuracy when SketchStats
	// is set (default 0.01: quantiles within 1% of exact percentiles).
	StatsAccuracy float64
	// QueueSampleCap, when positive, bounds the retained queue-sample
	// instants over long horizons: the monitor thins samples with an
	// adaptive stride (keeping every 2^k-th sampling tick, doubling k
	// as needed), so a multi-second campaign holds at most this many
	// instants, spread evenly over the whole run, instead of growing
	// with the horizon. Queue percentiles are then computed over the
	// thinned set.
	QueueSampleCap int
	// Seed makes runs reproducible (default 1).
	Seed int64
}

// scenario lowers the Experiment onto the internal runner. It resolves
// every spec and attaches the observers.
func (e Experiment) scenario() (experiment.LoadScenario, []int64, error) {
	if e.Scheme == "" {
		e.Scheme = "hpcc"
	}
	scheme, err := experiment.ByName(e.Scheme)
	if err != nil {
		return experiment.LoadScenario{}, nil, err
	}
	if e.Topology == nil {
		e.Topology = Pod{}
	}
	spec, err := e.Topology.topoSpec()
	if err != nil {
		return experiment.LoadScenario{}, nil, err
	}
	gens := make([]workload.Generator, len(e.Traffic))
	for i, t := range e.Traffic {
		if t == nil {
			return experiment.LoadScenario{}, nil, fmt.Errorf("hpcc: Traffic[%d] is nil", i)
		}
		if gens[i], err = t.generator(); err != nil {
			return experiment.LoadScenario{}, nil, err
		}
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	sc := experiment.LoadScenario{
		Scheme:          scheme,
		Topo:            spec,
		Traffic:         gens,
		MaxFlows:        e.MaxFlows,
		Until:           toSim(e.Horizon),
		Drain:           toSim(e.Drain),
		PFC:             e.Lossless == nil || *e.Lossless,
		Seed:            e.Seed,
		CompletedWindow: e.CompletedFlowWindow,
		QueueSampleCap:  e.QueueSampleCap,
		SketchStats:     e.SketchStats,
		StatsAccuracy:   e.StatsAccuracy,
	}
	if err := sc.Validate(); err != nil {
		return experiment.LoadScenario{}, nil, err
	}
	edges := e.edges()
	if e.SketchStats {
		// Streaming FCT sketches are keyed by their bucket edges up
		// front; pin them to the edges the result will be bucketed by.
		sc.FCTBucketEdges = edges
	}
	for _, o := range e.Observers {
		if o != nil {
			o.attach(&sc)
		}
	}
	return sc, edges, nil
}

// edges resolves the bucket edges for result statistics.
func (e Experiment) edges() []int64 {
	if len(e.BucketEdges) > 0 {
		return e.BucketEdges
	}
	for _, t := range e.Traffic {
		switch t := t.(type) {
		case Poisson:
			return t.CDF.edges()
		case *Poisson:
			return t.CDF.edges()
		case RPC:
			if t.ResponseCDF != nil {
				return t.ResponseCDF.edges()
			}
		case *RPC:
			if t.ResponseCDF != nil {
				return t.ResponseCDF.edges()
			}
		}
	}
	return CDF{}.edges()
}

// Run executes the experiment to its horizon plus drain and summarizes
// FCT-slowdown, queue and PFC statistics.
func (e Experiment) Run() (*SimResult, error) {
	sc, edges, err := e.scenario()
	if err != nil {
		return nil, err
	}
	r, err := experiment.RunLoad(sc)
	if err != nil {
		return nil, err
	}
	return summarize(r, edges), nil
}

// Start builds the experiment's fabric, installs its traffic sources
// and observers, and returns a Network for manual driving — start
// explicit flows, issue READs, advance virtual time. Traffic arrivals
// respect the Horizon (default 5 ms of virtual time); queue observers
// sample over the same window.
func (e Experiment) Start() (*Network, error) {
	sc, _, err := e.scenario()
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	net := experiment.StartManual(eng, sc)
	return &Network{
		eng:    eng,
		nw:     net.Network,
		scheme: sc.Scheme,
		rate:   sc.Topo.Rate(),
		rtt:    sc.Topo.BaseRTT(),
		obs:    net.Obs,
	}, nil
}

// SimResult summarizes one load experiment.
type SimResult struct {
	Scheme string
	// Flows completed; Censored were still in flight at the horizon.
	Flows, Censored int
	// SlowdownP50/P95/P99/P999 are FCT-slowdown percentiles over all
	// flows (0 when no flows completed — see Flows). In sketch-stats
	// mode each is within the configured relative accuracy of the exact
	// percentile; P999 is the deep-tail figure sketches make affordable
	// at million-flow scale.
	SlowdownP50, SlowdownP95, SlowdownP99, SlowdownP999 float64
	// ShortFlowP99Slowdown covers flows ≤ 7 KB (the latency-sensitive
	// class the paper highlights). When ShortFlows is 0, it reports 0
	// rather than NaN, so results always survive encoding/json.
	ShortFlowP99Slowdown float64
	// ShortFlows counts the completed flows ≤ 7 KB behind
	// ShortFlowP99Slowdown.
	ShortFlows int
	// QueueP50KB/P99KB/MaxKB are switch-queue percentiles over 10 µs
	// samples.
	QueueP50KB, QueueP99KB, QueueMaxKB float64
	// PFCPauseFraction is paused (port × time) over the whole run.
	PFCPauseFraction float64
	Drops            uint64
	// RetainedStatBytes is the run's logical retained-statistics
	// footprint (FCT retention plus pooled queue samples; sketch
	// buckets in sketch-stats mode). Deterministic; flat in flow count
	// when SketchStats is set.
	RetainedStatBytes int64
	// Events counts the engine events the run fired and PendingHighWater
	// is the most the engine had pending at once, every frame in flight
	// on a wire included. Deliveries of the events were frames reaching
	// the far end of a link; OffLane of those fit none of the engine's
	// delivery lanes and went through its heap instead. They describe the
	// execution rather than the simulated network, and are as
	// reproducible as every field above.
	Events           uint64
	PendingHighWater int
	Deliveries       uint64
	OffLane          uint64
	// BucketP95 maps each flow-size bucket edge to its 95th-percentile
	// slowdown (the paper's FCT-figure series). Buckets with N == 0
	// report P95 = 0.
	BucketP95 []BucketPoint
}

// BucketPoint is one x-position of an FCT figure.
type BucketPoint struct {
	SizeHi int64
	P95    float64
	N      int
}

// summarize converts an internal LoadResult into the public SimResult,
// guarding every percentile against empty sets: a run with no
// qualifying flows reports 0 (with the explicit counts saying why),
// never NaN — so results always survive encoding/json.
func summarize(r *experiment.LoadResult, edges []int64) *SimResult {
	out := &SimResult{
		Scheme:               r.Scheme,
		Flows:                r.FCT.Count(),
		Censored:             r.Censored,
		SlowdownP50:          r.FCT.SlowdownQuantile(50),
		SlowdownP95:          r.FCT.SlowdownQuantile(95),
		SlowdownP99:          r.FCT.SlowdownQuantile(99),
		SlowdownP999:         r.FCT.SlowdownQuantile(99.9),
		ShortFlowP99Slowdown: r.FCT.ShortSlowdownQuantile(99),
		ShortFlows:           r.FCT.ShortCount(),
		QueueP50KB:           r.Queue.P50 / 1024,
		QueueP99KB:           r.Queue.P99 / 1024,
		QueueMaxKB:           r.Queue.Max / 1024,
		PFCPauseFraction:     r.PauseFrac,
		Drops:                r.Drops,
		RetainedStatBytes:    r.RetainedStatBytes,
		Events:               r.Events,
		PendingHighWater:     r.PendingHighWater,
		Deliveries:           r.Deliveries,
		OffLane:              r.OffLane,
	}
	for _, row := range r.FCT.Buckets(edges) {
		out.BucketP95 = append(out.BucketP95, BucketPoint{SizeHi: row.Hi, P95: row.Stats.P95, N: row.Stats.N})
	}
	return out
}
