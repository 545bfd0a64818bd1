package experiment

import (
	"cmp"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// A golden is the text a case renders, kept in testdata/golden/<name>.txt.
// Regenerate them all with
//
//	go test ./internal/experiment -run Golden -update
//
// which writes the files and fails, so a passing run never regenerates.
var update = flag.Bool("update", false, "rewrite testdata/golden from this run, and fail")

const goldenDir = "testdata/golden"

// updated holds the golden files an -update run has written, so a case
// that shares a file compares with it instead of overwriting it.
var updated = map[string]bool{}

// checkGolden compares got with the golden file name and prints the
// lines that moved.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join(goldenDir, name+".txt")
	if *update && !updated[path] {
		updated[path] = true
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("wrote %s; run again without -update", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v; write it with: go test ./internal/experiment -run Golden -update", err)
	}
	if d := lineDiff(string(want), got); d != "" {
		t.Errorf("%s moved (-want +got):\n%s", path, d)
	}
}

// lineDiff lists, by line number, each line at which want and got
// differ: a moved cell shows as its row, once from each side.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := range max(len(w), len(g)) {
		if i < len(w) && i < len(g) && w[i] == g[i] {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n", i+1)
		if i < len(w) {
			fmt.Fprintf(&b, "-%s\n", w[i])
		}
		if i < len(g) {
			fmt.Fprintf(&b, "+%s\n", g[i])
		}
	}
	return b.String()
}

// figureParams is the scale the figure goldens render at. Only the load
// figures read Scale.
var figureParams = Params{
	Scale: Scale{MaxFlows: 60, Until: 2 * sim.Millisecond, Drain: 8 * sim.Millisecond},
	Seed:  1,
	Fat:   topology.ScaledFatTree(),
}

// loadFigures selects the catalogue entries that read Params.Scale. The
// figures split across two tests only so that each keeps the name its
// subtests have always had; together they cover every entry.
var loadFigures = []string{"fig2", "fig3", "fig10", "fig11", "fig12", "ablations-quant", "extra"}

// checkFigures compares, for each catalogue entry that is (or is not) a
// load figure, the tables it renders with its golden: the bytes hpccexp
// prints for it.
func checkFigures(t *testing.T, load bool) {
	scaled, err := Match(loadFigures)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range All() {
		if slices.ContainsFunc(scaled, func(s Scenario) bool { return s.Name == sc.Name }) != load {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			var b strings.Builder
			for _, tb := range sc.Run(figureParams) {
				tb.Fprint(&b)
			}
			checkGolden(t, sc.Name, b.String())
		})
	}
}

func TestLoadFiguresGolden(t *testing.T) { checkFigures(t, true) }

func TestHandBuiltFiguresGolden(t *testing.T) {
	checkFigures(t, false)
	// No micro-benchmark fills a buffer to its PFC threshold, so the
	// tables cannot tell a lossless fixture from a lossy one; pin the
	// settings the fixture builds with, under every scheme, instead.
	t.Run("micro-fixture", func(t *testing.T) {
		var b strings.Builder
		for _, s := range schemes {
			fmt.Fprintf(&b, "%s:\n", s.name)
			nw := starCell{Scheme: s.scheme, Hosts: 3, Rate: 100 * sim.Gbps, Seed: 1}.start(sim.NewEngine()).Network
			for _, sw := range nw.Switches {
				c := sw.Config()
				fmt.Fprintln(&b, c.BufferBytes, c.PFCEnabled, fabric.PFCAlpha, fabric.PFCResumeHysteresis,
					c.ECNEnabled, c.KMin, c.KMax, fabric.PMax, c.INTEnabled, c.INTQuantize, c.LossyEgressAlpha, c.Seed)
			}
			for _, hst := range nw.Hosts {
				c := hst.Config()
				fmt.Fprintln(&b, c.FlowCtl, packet.DefaultMTU, c.INT, int64(c.BaseRTT), int64(host.CNPInterval), int64(host.RTO),
					c.CompletedWindow, c.Seed)
			}
		}
		checkGolden(t, "micro-fixture", b.String())
	})
}

// dumbbellLoad is the 4-pair dumbbell under Poisson WebSearch plus a
// 3-to-1 incast: small, lossless, and busy enough to exercise PFC.
func dumbbellLoad() LoadScenario {
	return LoadScenario{
		Scheme: ByNameMust("hpcc"),
		Topo: topology.DumbbellSpec{Pairs: 4, HostRate: 100 * sim.Gbps,
			CoreRate: 100 * sim.Gbps, Delay: sim.Microsecond},
		Traffic: []workload.Generator{
			workload.PoissonSpec{CDF: workload.WebSearch(), Load: 0.6},
			workload.IncastSpec{FanIn: 3, Size: 200_000, LoadFrac: 0.02},
		},
		MaxFlows: 150,
		Until:    2 * sim.Millisecond,
		Drain:    10 * sim.Millisecond,
		PFC:      true,
		Seed:     3,
	}
}

// fatTreeLoad is the CI FatTree (32 hosts, ECMP across the aggs; no
// route climbs to a core) under Poisson WebSearch.
func fatTreeLoad(load float64, flows int, seed int64) LoadScenario {
	return LoadScenario{
		Scheme:      ByNameMust("hpcc"),
		Topo:        FatTreeTopo(topology.ScaledFatTree()),
		Traffic:     []workload.Generator{workload.PoissonSpec{CDF: workload.WebSearch(), Load: load}},
		MaxFlows:    flows,
		Until:       sim.Millisecond,
		Drain:       10 * sim.Millisecond,
		PFC:         true,
		Seed:        seed,
		BufferBytes: BufferFor(32),
	}
}

// loadGoldens are the LoadResult goldens. Each runs as subtest name of
// the test named test, and renders to the golden file.
var loadGoldens = []struct {
	test, name, file string
	mk               func() LoadScenario
}{
	{"TestDumbbellGolden", "hpcc", "dumbbell-hpcc", dumbbellLoad},
	{"TestDumbbellGolden", "dcqcn", "dumbbell-dcqcn", func() LoadScenario {
		s := dumbbellLoad()
		s.Scheme = ByNameMust("dcqcn")
		return s
	}},
	// Bounded flow retention changes no result: the uncapped run's file.
	{"TestDumbbellGolden", "window4", "dumbbell-hpcc", func() LoadScenario {
		s := dumbbellLoad()
		s.CompletedWindow = 4
		return s
	}},
	{"TestFatTreeGolden", "fattree", "fattree", func() LoadScenario { return fatTreeLoad(0.5, 120, 1) }},
	// A saturated FatTree with a 16-way incast on top: ECMP spreads the
	// load over every agg and core, and PFC pauses.
	{"TestSaturatedMultipathGolden", "saturated-multipath", "saturated-multipath", func() LoadScenario {
		s := fatTreeLoad(0.95, 400, 5)
		s.Traffic = append(s.Traffic, workload.IncastSpec{FanIn: 16, Size: 500_000, LoadFrac: 0.1})
		s.Until = 2 * sim.Millisecond
		s.Drain = 15 * sim.Millisecond
		return s
	}},
	// Sketch mode: no samples retained, FCT statistics from the sketch.
	{"TestSketchGolden", "dumbbell-sketch", "dumbbell-sketch", func() LoadScenario {
		s := dumbbellLoad()
		s.SketchStats = true
		return s
	}},
	// The dumbbell's traffic on an 8-host star.
	{"TestLoadResultGolden", "star8", "star8", func() LoadScenario {
		s := dumbbellLoad()
		s.Topo = StarTopo(8)
		return s
	}},
}

// checkLoadGoldens runs the LoadResult goldens of the calling test.
func checkLoadGoldens(t *testing.T) {
	for _, c := range loadGoldens {
		if c.test == t.Name() {
			t.Run(c.name, func(t *testing.T) { checkGolden(t, c.file, renderResult(runLoadT(t, c.mk()))) })
		}
	}
}

func TestDumbbellGolden(t *testing.T)           { checkLoadGoldens(t) }
func TestFatTreeGolden(t *testing.T)            { checkLoadGoldens(t) }
func TestSaturatedMultipathGolden(t *testing.T) { checkLoadGoldens(t) }
func TestSketchGolden(t *testing.T)             { checkLoadGoldens(t) }
func TestLoadResultGolden(t *testing.T)         { checkLoadGoldens(t) }

// renderResult is a LoadResult's golden text: its counters, summaries
// and WebSearch buckets, floats in shortest round-trip form, and for
// each of its two long lists, the FCT records (sorted: their collection
// order is not part of the result) and the queue-depth multiset, the
// length and an FNV-64a hash. The engine line describes the execution
// rather than the simulated network: an extra event per packet moves it
// and nothing else.
func renderResult(r *LoadResult) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	summary := func(s stats.Summary) string {
		return fmt.Sprintf("n %d mean %s p50 %s p95 %s p99 %s max %s", s.N, g(s.Mean), g(s.P50), g(s.P95), g(s.P99), g(s.Max))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "counters: started %d censored %d drops %d data packets %d port packets %d elapsed %d ps\n",
		r.Started, r.Censored, r.Drops, r.DataPackets, r.PortPackets, r.Elapsed)
	fmt.Fprintf(&b, "engine: events %d deliveries %d off-lane %d pending high-water %d\n",
		r.Events, r.Deliveries, r.OffLane, r.PendingHighWater)
	fmt.Fprintf(&b, "pause fraction: %s\n", g(r.PauseFrac))
	fmt.Fprintf(&b, "queue bytes: %s\n", summary(r.Queue))
	f := &r.FCT
	fmt.Fprintf(&b, "fct: %d flows, %d short (p99 %s); slowdown p50 %s p95 %s p99 %s p99.9 %s\n",
		f.Count(), f.ShortCount(), g(f.ShortSlowdownQuantile(99)),
		g(f.SlowdownQuantile(50)), g(f.SlowdownQuantile(95)), g(f.SlowdownQuantile(99)), g(f.SlowdownQuantile(99.9)))
	for _, bk := range f.Buckets(stats.WebSearchEdges()) {
		fmt.Fprintf(&b, "fct (%d, %d]: %s\n", bk.Lo, bk.Hi, summary(bk.Stats))
	}
	recs := slices.Clone(f.Records)
	slices.SortFunc(recs, func(a, b stats.FCTRecord) int {
		return cmp.Or(cmp.Compare(a.Size, b.Size), cmp.Compare(a.FCT, b.FCT), cmp.Compare(a.Ideal, b.Ideal))
	})
	h := fnv.New64a()
	for _, rec := range recs {
		fmt.Fprintln(h, rec.Size, int64(rec.FCT), int64(rec.Ideal))
	}
	fmt.Fprintf(&b, "fct records: %d, fnv64a %x\n", len(recs), h.Sum64())
	h.Reset()
	var n int64
	for _, d := range r.QueueDepths {
		fmt.Fprintln(h, d.Bytes, d.Count)
		n += d.Count
	}
	fmt.Fprintf(&b, "queue depths: %d samples at %d depths, fnv64a %x\n", n, len(r.QueueDepths), h.Sum64())
	return b.String()
}

// Every golden file belongs to a case: a file no case writes (a renamed
// or deleted scenario's) fails as an orphan.
func TestOrphanGoldens(t *testing.T) {
	owned := map[string]bool{"micro-fixture.txt": true}
	for _, sc := range All() {
		owned[sc.Name+".txt"] = true
	}
	for _, c := range loadGoldens {
		owned[c.file+".txt"] = true
	}
	files, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !owned[f.Name()] {
			t.Errorf("%s: no golden case writes it; delete it or restore its case", filepath.Join(goldenDir, f.Name()))
		}
	}
}
