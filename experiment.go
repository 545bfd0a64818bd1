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
	// and stay valid for as long as the caller holds them. Zero keeps
	// every flow; a negative window is an error.
	CompletedFlowWindow int
	// SketchStats switches result statistics to streaming mode: instead
	// of retaining every FCT record and a count per distinct queue
	// depth, observations stream into DDSketch-style quantile
	// sketches (per-size-bucket slowdowns, the short-flow class,
	// per-port queue depth), so retained stat memory is O(sketch
	// buckets) — a few KB — regardless of flow count or horizon. Every
	// reported percentile is within 1% of the exact one. The default
	// (false) is exact and reproduces historical results byte-for-byte.
	SketchStats bool
	// Seed makes runs reproducible (default 1).
	Seed int64
}

// scenario lowers the Experiment onto the internal runner and attaches
// the observers. The specs' own rules are LoadScenario.Validate's,
// which RunLoad and Start apply.
func (e Experiment) scenario() (experiment.LoadScenario, error) {
	if e.Scheme == "" {
		e.Scheme = "hpcc"
	}
	scheme, err := experiment.ByName(e.Scheme)
	if err != nil {
		return experiment.LoadScenario{}, err
	}
	if e.Topology == nil {
		e.Topology = Pod{}
	}
	gens := make([]workload.Generator, len(e.Traffic))
	for i, t := range e.Traffic {
		if t == nil {
			return experiment.LoadScenario{}, fmt.Errorf("hpcc: Traffic[%d] is nil", i)
		}
		gens[i] = t.generator()
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	sc := experiment.LoadScenario{
		Scheme:          scheme,
		Topo:            e.Topology.topoSpec(),
		Traffic:         gens,
		MaxFlows:        e.MaxFlows,
		Until:           toSim(e.Horizon),
		Drain:           toSim(e.Drain),
		PFC:             e.Lossless == nil || *e.Lossless,
		Seed:            e.Seed,
		CompletedWindow: e.CompletedFlowWindow,
		SketchStats:     e.SketchStats,
		FCTBucketEdges:  e.edges(),
	}
	for _, o := range e.Observers {
		if o != nil {
			o.attach(&sc)
		}
	}
	return sc, nil
}

// edges resolves the flow-size bucket edges for the result's
// per-bucket FCT statistics: the natural edges of the first Poisson or
// RPC source's CDF, else the WebSearch figure edges.
func (e Experiment) edges() []int64 {
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
// FCT-slowdown, queue and PFC statistics. Its errors are Start's.
func (e Experiment) Run() (*SimResult, error) {
	sc, err := e.scenario()
	if err != nil {
		return nil, err
	}
	r, err := experiment.RunLoad(sc)
	if err != nil {
		return nil, err
	}
	return summarize(r, sc.FCTBucketEdges), nil
}

// Start builds the experiment's fabric, installs its traffic sources
// and observers, and returns a Network for manual driving — start
// explicit flows, issue READs, advance virtual time. Traffic arrivals
// respect the Horizon (default 5 ms of virtual time); queue observers
// sample over the same window. The error is a spec outside its valid
// range or, once the fabric is built, a lossless fabric with a switch
// whose buffer is below its PFC headroom sum: over its ports, 2 × rate
// × delay plus two largest frames.
func (e Experiment) Start() (*Network, error) {
	sc, err := e.scenario()
	if err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	m := experiment.StartManual(eng, sc)
	for _, sw := range m.Network.Switches {
		if err := sw.CheckHeadroom(); err != nil {
			return nil, err
		}
	}
	return &Network{eng: eng, m: m, scheme: sc.Scheme.Name}, nil
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
	// footprint (FCT retention plus one depth and count per distinct
	// queue depth; sketch buckets in sketch-stats mode). Deterministic;
	// flat in flow count when SketchStats is set.
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
