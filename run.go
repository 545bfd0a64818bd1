package hpcc

import (
	"fmt"
	"time"
)

// SimConfig describes a whole-cluster load experiment: Poisson traffic
// from a public flow-size distribution (plus optional incast) on one of
// the paper's topologies.
//
// It is the legacy string-keyed surface, kept as a thin wrapper over
// the spec-based Experiment API: Topology/Workload strings map onto
// the corresponding Topology and Traffic spec values. New code should
// compose an Experiment directly.
type SimConfig struct {
	// Scheme is the congestion control (see SchemeNames). Default
	// "hpcc".
	Scheme string
	// Topology: "pod" (default; the paper's testbed) or "fattree".
	Topology string
	// PaperScale selects the full 320-host FatTree; it requires
	// Topology "fattree".
	PaperScale bool
	// Workload: "websearch" (default) or "fbhadoop".
	Workload string
	// Load is the target average link load (default 0.3).
	Load float64
	// Flows caps the number of generated flows (default 1000).
	Flows int
	// Duration is the arrival window (default 5 ms of virtual time).
	Duration time.Duration
	// Drain is extra time for in-flight flows (default 20 ms).
	Drain time.Duration
	// Incast adds periodic fan-in events (60-to-1 × 500 KB at 2% of
	// capacity, scaled down on small fabrics), as in §5.3.
	Incast bool
	// Lossless enables PFC (default true). When false, switches drop
	// and hosts recover via go-back-N.
	Lossless *bool
	// SketchStats switches result statistics to streaming quantile
	// sketches: O(buckets) retained stat memory regardless of flow
	// count, percentiles within StatsAccuracy of exact (see
	// Experiment.SketchStats).
	SketchStats bool
	// StatsAccuracy is the sketch relative accuracy (default 0.01).
	StatsAccuracy float64
	// Seed makes runs reproducible (default 1).
	Seed int64
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

// Run executes a load experiment and summarizes it. It is a back-compat
// wrapper composing the equivalent Experiment from the config's
// strings.
func Run(cfg SimConfig) (*SimResult, error) {
	var topo Topology
	switch cfg.Topology {
	case "", "pod":
		if cfg.PaperScale {
			return nil, fmt.Errorf("hpcc: PaperScale is the 320-host FatTree; it needs Topology \"fattree\", got %q", cfg.Topology)
		}
		topo = Pod{}
	case "fattree":
		if cfg.PaperScale {
			topo = PaperFatTree()
		} else {
			topo = FatTree{}
		}
	default:
		return nil, fmt.Errorf("hpcc: unknown topology %q", cfg.Topology)
	}
	var cdf CDF
	switch cfg.Workload {
	case "", "websearch":
		cdf = WebSearchCDF()
	case "fbhadoop":
		cdf = FBHadoopCDF()
	default:
		return nil, fmt.Errorf("hpcc: unknown workload %q (want websearch or fbhadoop)", cfg.Workload)
	}
	if cfg.Load == 0 {
		cfg.Load = 0.3
	}
	traffic := []Traffic{Poisson{CDF: cdf, Load: cfg.Load}}
	if cfg.Incast {
		fanIn := 60
		if cfg.Topology == "pod" || cfg.Topology == "" {
			fanIn = 16
		}
		traffic = append(traffic, Incast{FanIn: fanIn, FlowSizeBytes: 500_000, LoadFraction: 0.02})
	}
	return Experiment{
		Scheme:        cfg.Scheme,
		Topology:      topo,
		Traffic:       traffic,
		Horizon:       cfg.Duration,
		Drain:         cfg.Drain,
		MaxFlows:      cfg.Flows,
		Lossless:      cfg.Lossless,
		SketchStats:   cfg.SketchStats,
		StatsAccuracy: cfg.StatsAccuracy,
		Seed:          cfg.Seed,
	}.Run()
}
