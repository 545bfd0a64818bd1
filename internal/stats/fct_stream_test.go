package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"hpcc/internal/sim"
)

// randRecords draws WebSearch-ish records: sizes spanning the bucket
// edges, slowdowns with a heavy tail.
func randRecords(rng *rand.Rand, n int) []FCTRecord {
	out := make([]FCTRecord, n)
	for i := range out {
		size := int64(math.Exp(rng.Float64()*17)) + 1 // 1 .. ~2.4e7 bytes
		ideal := sim.Time(1000 + rng.Intn(100000))
		slow := 1 + rng.ExpFloat64()*4
		out[i] = FCTRecord{Size: size, Ideal: ideal, FCT: sim.Time(float64(ideal) * slow)}
	}
	return out
}

// Streaming mode must agree with exact mode on every published
// statistic: counts exactly, quantiles within the configured accuracy.
func TestStreamingFCTMatchesExact(t *testing.T) {
	const alpha = 0.01
	rng := rand.New(rand.NewSource(21))
	recs := randRecords(rng, 6000)

	var exact FCTSet
	str := NewStreamingFCT(WebSearchEdges(), alpha)
	for _, r := range recs {
		exact.Add(r)
		str.Add(r)
	}

	if exact.Count() != str.Count() || exact.ShortCount() != str.ShortCount() {
		t.Fatalf("counts: exact (%d,%d) vs streaming (%d,%d)",
			exact.Count(), exact.ShortCount(), str.Count(), str.ShortCount())
	}
	// The sketch guarantee is α relative to an exact order statistic, so
	// bracket each estimate by the order statistics surrounding its rank
	// (Percentile interpolates between them, which is a different — and
	// for sparse tails, wider — estimator).
	bracket := func(got float64, xs []float64, p float64, label string) {
		t.Helper()
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		rank := p / 100 * float64(len(sorted)-1)
		lo := sorted[int(rank)] * (1 - alpha)
		hi := sorted[int(math.Ceil(rank))] * (1 + alpha)
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Errorf("%s p%v: got %g, want within [%g, %g]", label, p, got, lo, hi)
		}
	}
	var shortSl, shortUS []float64
	perBucket := make([][]float64, len(WebSearchEdges()))
	for _, r := range recs {
		if r.Size <= ShortFlowLimit {
			shortSl = append(shortSl, r.Slowdown())
			shortUS = append(shortUS, r.FCT.Microseconds())
		}
		if i := bucketIndex(WebSearchEdges(), r.Size); i >= 0 {
			perBucket[i] = append(perBucket[i], r.Slowdown())
		}
	}
	for _, p := range []float64{50, 95, 99, 99.9} {
		bracket(str.SlowdownQuantile(p), exact.Slowdowns(), p, "slowdown")
		bracket(str.ShortSlowdownQuantile(p), shortSl, p, "short slowdown")
		bracket(str.ShortLatencyQuantile(p), shortUS, p, "short latency")
	}
	er, sr := exact.Buckets(WebSearchEdges()), str.Buckets(nil)
	for i := range er {
		if er[i].Lo != sr[i].Lo || er[i].Hi != sr[i].Hi || er[i].Stats.N != sr[i].Stats.N {
			t.Fatalf("bucket %d shape: %+v vs %+v", i, er[i], sr[i])
		}
		if er[i].Stats.Max != sr[i].Stats.Max {
			t.Errorf("bucket %d max: %g vs %g", i, sr[i].Stats.Max, er[i].Stats.Max)
		}
		if er[i].Stats.N > 0 {
			bracket(sr[i].Stats.P95, perBucket[i], 95, "bucket")
		}
	}
}

// Streaming retention must stay flat in flow count while exact
// retention grows linearly — the point of the refactor. Bucket
// occupancy saturates once the value range has been seen, so compare
// at saturated sample counts.
func TestStreamingFCTRetainedBytesFlat(t *testing.T) {
	build := func(n int) (int64, int64) {
		rng := rand.New(rand.NewSource(1))
		var exact FCTSet
		str := NewStreamingFCT(nil, 0)
		for _, r := range randRecords(rng, n) {
			exact.Add(r)
			str.Add(r)
		}
		return exact.RetainedBytes(), str.RetainedBytes()
	}
	e1, s1 := build(20000)
	e4, s4 := build(80000)
	if e4 != 4*e1 {
		t.Errorf("exact retention not linear: %d then %d", e1, e4)
	}
	if float64(s4) > 1.25*float64(s1) {
		t.Errorf("streaming retention grew with flow count: %d then %d", s1, s4)
	}
	if s4 >= e1 {
		t.Errorf("streaming footprint %d not below exact %d at 20K flows", s4, e1)
	}
}

// Add computes a record's slowdown key once for the all, short and
// bucket sketches; each must end exactly as if the slowdown had gone
// through its own Sketch.Add.
func TestStreamingFCTSharedKeyMatchesAdd(t *testing.T) {
	set := NewStreamingFCT(nil, 0)
	st := set.str
	all, short := NewSketch(0), NewSketch(0)
	buckets := make([]*Sketch, len(st.edges))
	for i := range buckets {
		buckets[i] = NewSketch(0)
	}
	for _, r := range randRecords(rand.New(rand.NewSource(5)), 5000) {
		set.Add(r)
		all.Add(r.Slowdown())
		if r.Size <= ShortFlowLimit {
			short.Add(r.Slowdown())
		}
		if i := bucketIndex(st.edges, r.Size); i >= 0 {
			buckets[i].Add(r.Slowdown())
		}
	}
	if !reflect.DeepEqual(st.all, all) || !reflect.DeepEqual(st.short, short) || !reflect.DeepEqual(st.buckets, buckets) {
		t.Fatal("a slowdown sketch differs from one fed through Sketch.Add")
	}
}

// The binary-search bucket router must reproduce the historical linear
// scan exactly, for any sorted edge set and any sizes.
func TestBucketIndexMatchesLinearScan(t *testing.T) {
	linear := func(edges []int64, size int64) int {
		for i := range edges {
			lo := int64(0)
			if i > 0 {
				lo = edges[i-1]
			}
			if size > lo && (size <= edges[i] || i == len(edges)-1) {
				return i
			}
		}
		return -1
	}
	f := func(seed int64, nEdges uint8, nSizes uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		edges := make([]int64, int(nEdges%12)+1)
		for i := range edges {
			edges[i] = rng.Int63n(1 << 20)
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		for i := 0; i <= int(nSizes); i++ {
			size := rng.Int63n(1<<21) - 10
			// Exercise exact edge hits too.
			if i%3 == 0 {
				size = edges[rng.Intn(len(edges))]
			}
			if got, want := bucketIndex(edges, size), linear(edges, size); got != want {
				t.Logf("edges %v size %d: binary %d, linear %d", edges, size, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingFCTForeignEdgesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign edges should panic")
		}
	}()
	set := NewStreamingFCT(WebSearchEdges(), 0)
	set.Buckets(FBHadoopEdges())
}
