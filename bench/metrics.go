package main

import (
	"math"
	"sort"
)

// metricDef is one named metric. BENCHMARK.json carries the same table
// (smoke_test.go checks the two agree).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndDefs are the metrics a user of the simulator sees. fail_frac
// is reported beside them (and as attempted/failed to the driver) but
// is not in this table: its bound is 0 and its healthy value is 0,
// which a relative bound cannot express.
var endToEndDefs = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"pkts_per_s", "1/s", "higher", 0.25},
	{"allocs_per_pkt", "count", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayerDefs are the single-layer metrics, grouped by layer (= module
// name). README.md says which end-to-end metric each should move, on
// which workload.
var perLayerDefs = func() []metricDef {
	d := []metricDef{
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.events_per_port_pkt", Unit: "count", Better: "lower"},
		{Name: "sim.hold_ns_d1k", Unit: "ns", Better: "lower"},
		{Name: "sim.hold_ns_d64k", Unit: "ns", Better: "lower"},
		{Name: "sim.cancel_ns", Unit: "ns", Better: "lower"},
		{Name: "packet.pool_ns", Unit: "ns", Better: "lower"},
		{Name: "fabric.port_pkts", Unit: "count", Better: "lower"},
		{Name: "fabric.drops", Unit: "count", Better: "lower"},
		{Name: "fabric.pfc_pause_frac", Unit: "frac", Better: "lower"},
		{Name: "fabric.queue_p99_kb", Unit: "KB", Better: "lower"},
		{Name: "fabric.hop_ns", Unit: "ns", Better: "lower"},
		{Name: "host.data_pkts", Unit: "count", Better: "lower"},
		{Name: "host.flows_started", Unit: "count", Better: "higher"},
		{Name: "host.flows_censored", Unit: "count", Better: "lower"},
		{Name: "host.flow_ns", Unit: "ns", Better: "lower"},
		{Name: "host.flow_allocs", Unit: "count", Better: "lower"},
		{Name: "host.pkt_ns", Unit: "ns", Better: "lower"},
	}
	for _, s := range ccSchemes {
		d = append(d,
			metricDef{Name: "cc." + metricName(s) + ".onack_ns", Unit: "ns", Better: "lower"},
			metricDef{Name: "cc." + metricName(s) + ".onack_allocs", Unit: "count", Better: "lower"})
	}
	d = append(d,
		metricDef{Name: "cc.sender.onack_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "workload.cdf_sample_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "topology.build_paper_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "topology.build_allocs", Unit: "count", Better: "lower"},
		metricDef{Name: "stats.sketch_add_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "stats.fct_add_exact_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "stats.fct_add_stream_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "stats.retained_bytes", Unit: "B", Better: "lower"},
		metricDef{Name: "campaign.jobs", Unit: "count", Better: "higher"},
		metricDef{Name: "campaign.dispatch_us", Unit: "us", Better: "lower"},
		metricDef{Name: "campaign.parallel_eff", Unit: "frac", Better: "higher"},
		metricDef{Name: "report.render_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.alloc_bytes_per_pkt", Unit: "B", Better: "lower"},
		metricDef{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	)
	for _, l := range profileLayers {
		d = append(d, metricDef{Name: shareName(l), Unit: "share", Better: "lower"})
	}
	return append(d, metricDef{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"})
}()

// shareName is the metric a profile bucket is reported under.
func shareName(bucket string) string {
	switch bucket {
	case "runtime.gc":
		return "runtime.gc_cpu_share"
	case "runtime.malloc":
		return "runtime.malloc_cpu_share"
	}
	return bucket + ".cpu_share"
}

// stat is a repeated measurement: median, range and sample count.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func newStat(v []float64, unit string) stat {
	s := stat{Median: median(v), Min: math.Inf(1), Max: math.Inf(-1), N: len(v), Unit: unit}
	for _, x := range v {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}

// endToEnd reduces the successful untraced runs of one workload to the
// end-to-end metrics.
func endToEnd(units []unitResult) map[string]stat {
	col := map[string][]float64{}
	for i := range units {
		u := &units[i]
		if u.Failure != "" {
			continue
		}
		col["wall_s"] = append(col["wall_s"], u.WallS)
		col["cpu_s"] = append(col["cpu_s"], u.CPUS)
		col["setup_s"] = append(col["setup_s"], u.SetupS)
		col["pkts_per_s"] = append(col["pkts_per_s"], u.work()/u.WallS)
		col["allocs_per_pkt"] = append(col["allocs_per_pkt"], float64(u.Mallocs)/u.work())
		col["peak_rss_mb"] = append(col["peak_rss_mb"], u.PeakRSSMB)
	}
	out := map[string]stat{}
	for _, d := range endToEndDefs {
		out[d.Name] = newStat(col[d.Name], d.Unit)
	}
	return out
}

// perLayer assembles every per-layer metric of one workload: the
// deterministic counts of its traced units (identical in each, so the
// first stands for all), their folded profiles averaged, the tracing
// overhead as median traced over median untraced wall time, and the
// (workload-independent) micro-driver results.
func perLayer(traced []unitResult, untracedWallS float64, micro map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(perLayerDefs))
	for k, v := range micro {
		m[k] = v
	}
	u := &traced[0]
	m["sim.events"] = float64(u.Events)
	if u.PortPkts > 0 {
		m["sim.events_per_port_pkt"] = float64(u.Events) / float64(u.PortPkts)
	}
	m["fabric.port_pkts"] = float64(u.PortPkts)
	m["fabric.drops"] = float64(u.Drops)
	m["fabric.pfc_pause_frac"] = u.PauseFrac
	m["fabric.queue_p99_kb"] = u.QueueP99KB
	m["host.data_pkts"] = float64(u.DataPkts)
	m["host.flows_started"] = float64(u.Flows)
	m["host.flows_censored"] = float64(u.Censored)
	m["stats.retained_bytes"] = float64(u.RetainedBytes)
	m["campaign.jobs"] = float64(u.Jobs)
	m["campaign.parallel_eff"] = u.ParallelEff
	m["runtime.gc_cycles"] = float64(u.GCCycles)
	m["runtime.alloc_bytes_per_pkt"] = float64(u.AllocBytes) / u.work()
	m["runtime.heap_peak_mb"] = u.HeapPeakMB
	walls := make([]float64, len(traced))
	for i := range traced {
		walls[i] = traced[i].WallS
		for _, l := range profileLayers {
			m[shareName(l)] += traced[i].Shares[l] / float64(len(traced))
		}
	}
	m["trace.overhead_frac"] = median(walls)/untracedWallS - 1
	for _, d := range perLayerDefs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0 // a count the workload does not have (packets on campaign-figs)
		}
	}
	return m
}
