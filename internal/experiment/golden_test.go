package experiment

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

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

// fatTreeLoad is the CI FatTree (32 hosts, ECMP across aggs and cores)
// under Poisson WebSearch.
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
	kb := append([]float64(nil), r.QueueKB...)
	sort.Float64s(kb)

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

// The dumbbell's traffic on an 8-host star, and the dumbbell with its
// queue samples capped at 16 rows.
func TestLoadResultGolden(t *testing.T) {
	checkGolden(t,
		goldenCase{"star8", func() LoadScenario {
			s := dumbbellLoad()
			s.Topo = StarTopo(8)
			return s
		}, resultHash{"9cddb63933c42de1", "389710db0c48b35b", "6fa4c1bfb1588097", "a8c7f832281a39c5", "87f0f593facfa260", "734749d9f35526a4"}},
		goldenCase{"dumbbell-samplecap16", func() LoadScenario {
			s := dumbbellLoad()
			s.QueueSampleCap = 16
			return s
		}, resultHash{"81e904e08ad9a7b0", "979b6b0c63ef268e", "fe685b556b0c3fef", "a8c7f832281a39c5", "a51a4598b8f55577", "43e22111dc10a8f0"}},
	)
}
