package experiment

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

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

// resultHash fingerprints one LoadResult part by part, so a drifting
// golden names the part that moved. Record and sample lists are sorted
// first: their collection order is not part of the result. Engine is
// the execution rather than the simulated network: an extra event per
// packet moves it and nothing else.
type resultHash struct {
	FCT, QueueKB, Queue, Pause, Counters, Engine string
}

func hashResult(r *LoadResult) resultHash {
	sum := func(write func(put func(...any))) string {
		h := fnv.New64a()
		write(func(vs ...any) {
			for _, v := range vs {
				if f, ok := v.(float64); ok {
					v = math.Float64bits(f)
				}
				if err := binary.Write(h, binary.LittleEndian, v); err != nil {
					panic(err)
				}
			}
		})
		return fmt.Sprintf("%016x", h.Sum64())
	}
	summary := func(put func(...any), s stats.Summary) {
		put(int64(s.N), s.Mean, s.P50, s.P95, s.P99, s.Max)
	}
	recs := append([]stats.FCTRecord(nil), r.FCT.Records...)
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		if a.FCT != b.FCT {
			return a.FCT < b.FCT
		}
		return a.Ideal < b.Ideal
	})
	// The sorted per-port samples in KB, expanded from their counts.
	var kb []float64
	for _, d := range r.QueueDepths {
		for range d.Count {
			kb = append(kb, float64(d.Bytes)/1024)
		}
	}

	return resultHash{
		FCT: sum(func(put func(...any)) {
			for _, rec := range recs {
				put(rec.Size, int64(rec.FCT), int64(rec.Ideal))
			}
			put(int64(r.FCT.Count()), int64(r.FCT.ShortCount()), r.FCT.ShortSlowdownQuantile(99))
			for _, p := range []float64{50, 95, 99, 99.9} {
				put(r.FCT.SlowdownQuantile(p))
			}
			for _, b := range r.FCT.Buckets(stats.WebSearchEdges()) {
				put(b.Lo, b.Hi)
				summary(put, b.Stats)
			}
		}),
		QueueKB: sum(func(put func(...any)) {
			for _, v := range kb {
				put(v)
			}
		}),
		Queue: sum(func(put func(...any)) { summary(put, r.Queue) }),
		Pause: sum(func(put func(...any)) { put(r.PauseFrac) }),
		Counters: sum(func(put func(...any)) {
			put(r.Drops, int64(r.Started), int64(r.Censored), r.DataPackets, r.PortPackets, int64(r.Elapsed))
		}),
		Engine: sum(func(put func(...any)) {
			put(r.Events, r.Deliveries, r.OffLane, int64(r.PendingHighWater))
		}),
	}
}

// goldenCase is one scenario whose single-engine LoadResult is pinned
// to hashes recorded at commit 432dcfe (the last commit with
// multi-engine execution, whose goldens checked these scenarios only
// against each other); the Engine part was recorded at 7e2bb35.
type goldenCase struct {
	name string
	mk   func() LoadScenario
	want resultHash
}

// checkGolden runs each case and requires its LoadResult to hash to
// the case's constant, part by part.
func checkGolden(t *testing.T, cases ...goldenCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := hashResult(runLoadT(t, c.mk()))
			parts := []struct{ name, got, want string }{
				{"FCT records and statistics", got.FCT, c.want.FCT},
				{"queue samples", got.QueueKB, c.want.QueueKB},
				{"queue summary", got.Queue, c.want.Queue},
				{"pause fraction", got.Pause, c.want.Pause},
				{"counters", got.Counters, c.want.Counters},
				{"engine counters", got.Engine, c.want.Engine},
			}
			for _, p := range parts {
				if p.got != p.want {
					t.Errorf("%s: hash %s, want %s", p.name, p.got, p.want)
				}
			}
			if t.Failed() {
				t.Logf("whole result hash: %#v", got)
			}
		})
	}
}

var dumbbellGolden = resultHash{"81e904e08ad9a7b0", "9e08ea369c556b0e", "9e489b45f87ab5a3", "a8c7f832281a39c5", "a51a4598b8f55577", "43e22111dc10a8f0"}

// The dumbbell under HPCC and DCQCN. CompletedWindow 4 must hash to the
// uncapped HPCC constant: bounded flow retention changes no result.
func TestDumbbellGolden(t *testing.T) {
	checkGolden(t,
		goldenCase{"hpcc", dumbbellLoad, dumbbellGolden},
		goldenCase{"dcqcn", func() LoadScenario {
			s := dumbbellLoad()
			s.Scheme = ByNameMust("dcqcn")
			return s
		}, resultHash{"3935f5a590d50b31", "9e4196fe5b2d2508", "059a25eca68add35", "a8c7f832281a39c5", "af864ea155b9497d", "004dcaf4d4df6b87"}},
		goldenCase{"window4", func() LoadScenario {
			s := dumbbellLoad()
			s.CompletedWindow = 4
			return s
		}, dumbbellGolden},
	)
}

func TestFatTreeGolden(t *testing.T) {
	checkGolden(t, goldenCase{"fattree", func() LoadScenario { return fatTreeLoad(0.5, 120, 1) },
		resultHash{"36156add0d4681b7", "5723f4f8e0f28610", "741af5fdd7b37a4d", "a8c7f832281a39c5", "b571f161d5d6b378", "8226c86c1de4243e"}})
}

// A saturated FatTree with a 16-way incast on top: ECMP spreads the
// load over every agg and core, and PFC pauses.
func TestSaturatedMultipathGolden(t *testing.T) {
	checkGolden(t, goldenCase{"saturated-multipath", func() LoadScenario {
		s := fatTreeLoad(0.95, 400, 5)
		s.Traffic = append(s.Traffic, workload.IncastSpec{FanIn: 16, Size: 500_000, LoadFrac: 0.1})
		s.Until = 2 * sim.Millisecond
		s.Drain = 15 * sim.Millisecond
		return s
	}, resultHash{"f35f554ff6d7cb2d", "b6b13a90d34786e2", "413b2121e0ac9b69", "d4997308047f8453", "da85ac526bd5e093", "64a9333b165f048c"}})
}

// The dumbbell in sketch mode: no samples retained, FCT statistics
// from the sketch.
func TestSketchGolden(t *testing.T) {
	checkGolden(t, goldenCase{"dumbbell-sketch", func() LoadScenario {
		s := dumbbellLoad()
		s.SketchStats = true
		return s
	}, resultHash{"d6626dad21844b6d", "cbf29ce484222325", "8dc2d26a31ba3b47", "a8c7f832281a39c5", "a51a4598b8f55577", "43e22111dc10a8f0"}})
}

// tableHash fingerprints rendered tables: title, columns, rows and
// notes, each string length-prefixed and each row terminated.
func tableHash(tables []*Table) string {
	h := fnv.New64a()
	put := func(ss ...string) {
		for _, s := range ss {
			fmt.Fprintf(h, "%d:%s", len(s), s)
		}
	}
	for _, t := range tables {
		put(t.Title)
		put(t.Cols...)
		for _, row := range t.Rows {
			put(row...)
			put("\n")
		}
		put(t.Notes...)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkFigures runs each named scenario at a small scale and requires
// its rendered tables to hash to the given constant. Only the load
// figures read Params.Scale.
func checkFigures(t *testing.T, cases []struct{ name, want string }) {
	t.Helper()
	p := Params{
		Scale: Scale{MaxFlows: 60, Until: 2 * sim.Millisecond, Drain: 8 * sim.Millisecond},
		Seed:  1,
		Fat:   topology.ScaledFatTree(),
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, sc := range All() {
				if sc.Name != c.name {
					continue
				}
				if got := tableHash(sc.Run(p)); got != c.want {
					t.Errorf("table hash %s, want %s", got, c.want)
				}
				return
			}
			t.Fatalf("no scenario %q", c.name)
		})
	}
}

// The load figures, pinned to the tables they rendered at d8caa72.
func TestLoadFiguresGolden(t *testing.T) {
	checkFigures(t, []struct{ name, want string }{
		{"fig2", "1dc083d1511a36d4"},
		{"fig3", "aec978e97c48a713"},
		{"fig10", "2ae48a268160208e"},
		{"fig11", "d625a370e429f7e8"},
		{"fig12", "b92bd4b75ca33938"},
		{"ablations-quant", "834511dc0a45aea1"},
		{"extra-fbsweep", "1d45a4cfde9edbe6"},
		{"extra-parkinglot", "ba43fb236d7f872b"},
		{"extra-hadoop-incast", "57ff37257a87651a"},
		{"extra-rpc-fattree", "b084f8d162c1e0a7"},
	})
}

// The figures that build through StartManual rather than RunLoad —
// Figure 1 and the star cells — pinned to the tables they rendered at
// 98cc638.
func TestHandBuiltFiguresGolden(t *testing.T) {
	checkFigures(t, []struct{ name, want string }{
		{"fig1", "c3bdc8b71bd5e971"},
		{"fig6", "9fd15067d6aae593"},
		{"fig9-longshort", "307d61d0665624db"},
		{"fig9-incast", "f3b363ebae2693bf"},
		{"fig9-mice", "3439845b65ebb914"},
		{"fig9-fairness", "4a9f71eeda1369d0"},
		{"fig13", "501ba03a53ce79d4"},
		{"fig14", "b38661727628c11b"},
		{"ablations-eta", "1fb9bfd9eb17c12e"},
	})
	// No micro-benchmark fills a buffer to its PFC threshold, so the
	// tables cannot tell a lossless fixture from a lossy one; pin the
	// settings the fixture builds with, under every scheme, instead.
	t.Run("micro-fixture", func(t *testing.T) {
		h := fnv.New64a()
		for _, name := range []string{"hpcc", "hpcc-rxrate", "hpcc-perack", "hpcc-perrtt",
			"dcqcn", "dcqcn+win", "timely", "timely+win", "dctcp"} {
			nw := starCell{Scheme: ByNameMust(name), Hosts: 3, Rate: 100 * sim.Gbps, Seed: 1}.start(sim.NewEngine()).Network
			for _, sw := range nw.Switches {
				c := sw.Config()
				fmt.Fprintln(h, c.BufferBytes, c.PFCEnabled, fabric.PFCAlpha, fabric.PFCResumeHysteresis,
					c.ECNEnabled, c.KMin, c.KMax, c.PMax, c.INTEnabled, c.INTQuantize, c.LossyEgressAlpha, c.Seed)
			}
			for _, hst := range nw.Hosts {
				c := hst.Config()
				fmt.Fprintln(h, c.FlowCtl, packet.DefaultMTU, c.INT, int64(c.BaseRTT), int64(host.CNPInterval), int64(host.RTO),
					c.CompletedWindow, c.Seed)
			}
		}
		if got, want := fmt.Sprintf("%016x", h.Sum64()), "674d902c3a552c1f"; got != want {
			t.Errorf("fixture settings hash %s, want %s", got, want)
		}
	})
}

// The dumbbell's traffic on an 8-host star.
func TestLoadResultGolden(t *testing.T) {
	checkGolden(t,
		goldenCase{"star8", func() LoadScenario {
			s := dumbbellLoad()
			s.Topo = StarTopo(8)
			return s
		}, resultHash{"9cddb63933c42de1", "389710db0c48b35b", "6fa4c1bfb1588097", "a8c7f832281a39c5", "87f0f593facfa260", "734749d9f35526a4"}},
	)
}
