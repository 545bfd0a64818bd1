package stats

import (
	"sort"

	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// FCTRecord is one completed flow's timing.
type FCTRecord struct {
	Size  int64
	FCT   sim.Time
	Ideal sim.Time
}

// Slowdown is the flow's FCT normalized by its ideal FCT on an empty
// network (paper footnote 1).
func (r FCTRecord) Slowdown() float64 {
	if r.Ideal <= 0 {
		return 1
	}
	s := float64(r.FCT) / float64(r.Ideal)
	if s < 1 {
		s = 1
	}
	return s
}

// IdealFCT returns a flow's FCT on an idle network: per-packet wire
// bytes serialized at the NIC line rate plus one base propagation RTT.
// intHeader adds the 42-byte INT tax when the scheme carries telemetry.
func IdealFCT(size int64, rate sim.Rate, baseRTT sim.Time, mtu int, intHeader bool) sim.Time {
	if size <= 0 {
		return baseRTT
	}
	pkts := (size + int64(mtu) - 1) / int64(mtu)
	overhead := int64(packet.HeaderBytes)
	if intHeader {
		overhead += packet.INTOverhead
	}
	wire := size + pkts*overhead
	return rate.TxTime(int(wire)) + baseRTT
}

// ShortFlowLimit is the flow-size ceiling (bytes) of the
// latency-sensitive class the paper highlights ("short" flows, ≤ 7 KB).
const ShortFlowLimit = 7_000

// FCTSet accumulates completed flows in one of two modes.
//
// Exact mode (the zero value, and the historical behavior) retains
// every FCTRecord: percentiles are exact, memory is linear in flow
// count, and goldens stay byte-identical.
//
// Streaming mode (NewStreamingFCT) retains no records: each completion
// streams into quantile sketches — one over all slowdowns,
// one per flow-size bucket, one for the short-flow class (slowdown and
// FCT) — so memory is O(buckets) however many flows complete, every
// quantile is within the sketch's relative accuracy of the exact
// percentile.
type FCTSet struct {
	Records []FCTRecord

	str *fctStream // non-nil => streaming mode
}

// fctStream is the streaming mode's state: sketches instead of records.
type fctStream struct {
	edges   []int64
	all     *Sketch   // slowdown, every flow
	short   *Sketch   // slowdown, flows <= ShortFlowLimit
	shortUS *Sketch   // FCT in µs, flows <= ShortFlowLimit
	buckets []*Sketch // slowdown per size bucket (len == len(edges)); Size <= 0 lands in none
}

// NewStreamingFCT returns a streaming-mode set with the given size-
// bucket edges (nil edges default to WebSearchEdges) and sketch
// relative accuracy alpha (<= 0 means DefaultRelativeAccuracy).
func NewStreamingFCT(edges []int64, alpha float64) FCTSet {
	if len(edges) == 0 {
		edges = WebSearchEdges()
	}
	str := &fctStream{
		edges:   append([]int64(nil), edges...),
		all:     NewSketch(alpha),
		short:   NewSketch(alpha),
		shortUS: NewSketch(alpha),
		buckets: make([]*Sketch, len(edges)),
	}
	for i := range str.buckets {
		str.buckets[i] = NewSketch(alpha)
	}
	return FCTSet{str: str}
}

// Add appends one record (exact mode) or streams it into the sketches.
func (s *FCTSet) Add(r FCTRecord) {
	if s.str == nil {
		s.Records = append(s.Records, r)
		return
	}
	st := s.str
	// The slowdown sketches share one α, so one key serves all three.
	sl := r.Slowdown()
	k := st.all.key(sl)
	st.all.addKeyed(sl, k, 1)
	if r.Size <= ShortFlowLimit {
		st.short.addKeyed(sl, k, 1)
		st.shortUS.Add(r.FCT.Microseconds())
	}
	if i := bucketIndex(st.edges, r.Size); i >= 0 {
		st.buckets[i].addKeyed(sl, k, 1)
	}
}

// Count returns how many flows the set has absorbed.
func (s *FCTSet) Count() int {
	if s.str != nil {
		return int(s.str.all.Count())
	}
	return len(s.Records)
}

// SlowdownQuantile returns the p-th percentile (0–100) of all
// slowdowns: exact in exact mode, within the sketch accuracy in
// streaming mode. Empty sets report 0 (callers publish the count
// alongside), never NaN.
func (s *FCTSet) SlowdownQuantile(p float64) float64 {
	if s.str != nil {
		return quantileOrZero(s.str.all, p)
	}
	if len(s.Records) == 0 {
		return 0
	}
	return Percentile(s.Slowdowns(), p)
}

// ShortCount counts flows no larger than ShortFlowLimit.
func (s *FCTSet) ShortCount() int {
	if s.str != nil {
		return int(s.str.short.Count())
	}
	n := 0
	for _, r := range s.Records {
		if r.Size <= ShortFlowLimit {
			n++
		}
	}
	return n
}

// ShortSlowdownQuantile is SlowdownQuantile over the short-flow class.
func (s *FCTSet) ShortSlowdownQuantile(p float64) float64 {
	if s.str != nil {
		return quantileOrZero(s.str.short, p)
	}
	var xs []float64
	for _, r := range s.Records {
		if r.Size <= ShortFlowLimit {
			xs = append(xs, r.Slowdown())
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return Percentile(xs, p)
}

// ShortLatencyQuantile returns the p-th percentile of short-flow FCT in
// microseconds (the "95pct-latency" bars of Figure 11). Empty sets
// report NaN like Percentile, preserving the exact-mode contract.
func (s *FCTSet) ShortLatencyQuantile(p float64) float64 {
	if s.str != nil {
		return s.str.shortUS.Quantile(p)
	}
	var xs []float64
	for _, r := range s.Records {
		if r.Size <= ShortFlowLimit {
			xs = append(xs, r.FCT.Microseconds())
		}
	}
	return Percentile(xs, p)
}

// quantileOrZero maps the empty-sketch NaN to 0.
func quantileOrZero(sk *Sketch, p float64) float64 {
	if sk.Count() == 0 {
		return 0
	}
	return sk.Quantile(p)
}

// RetainedBytes is the set's logical stat footprint: records retained
// in exact mode, occupied sketch buckets in streaming mode. It is
// deterministic.
func (s *FCTSet) RetainedBytes() int64 {
	if s.str == nil {
		return int64(len(s.Records)) * 24 // Size + FCT + Ideal
	}
	st := s.str
	total := st.all.RetainedBytes() + st.short.RetainedBytes() + st.shortUS.RetainedBytes()
	for _, b := range st.buckets {
		total += b.RetainedBytes()
	}
	return total
}

// Slowdowns returns every record's slowdown (exact mode only; streaming
// sets retain no per-flow values and return nil).
func (s *FCTSet) Slowdowns() []float64 {
	if s.str != nil {
		return nil
	}
	out := make([]float64, len(s.Records))
	for i, r := range s.Records {
		out[i] = r.Slowdown()
	}
	return out
}

// BucketRow is one flow-size bucket's slowdown statistics — one x-axis
// position of the paper's FCT figures.
type BucketRow struct {
	// (Lo, Hi] bounds the bucket by flow size in bytes.
	Lo, Hi int64
	Stats  Summary
}

// bucketIndex maps a flow size onto the bucket edges: edge i bounds
// bucket i as (edge[i-1], edge[i]], the first bucket is anchored at 0,
// and sizes beyond the last edge land in the final bucket. Returns -1
// for sizes no bucket accepts (Size <= 0). Binary search over the
// sorted edge array, O(log edges) per record.
func bucketIndex(edges []int64, size int64) int {
	if size <= 0 || len(edges) == 0 {
		return -1
	}
	i := sort.Search(len(edges), func(i int) bool { return edges[i] >= size })
	if i == len(edges) {
		i-- // oversized flows keep their tail statistics in the last bucket
	}
	return i
}

// Buckets groups flows into the given size-bucket edges (the figure's
// x-axis labels) and summarizes slowdowns per bucket. In streaming mode
// the edges must be the ones the set was built with (nil means "the
// configured edges") and the per-bucket Summary comes from that
// bucket's sketch: N, Mean and Max exact, percentiles within the sketch
// accuracy.
func (s *FCTSet) Buckets(edges []int64) []BucketRow {
	if s.str != nil {
		return s.str.rows(edges)
	}
	rows := bucketBounds(edges)
	vals := make([][]float64, len(edges))
	for _, r := range s.Records {
		if i := bucketIndex(edges, r.Size); i >= 0 {
			vals[i] = append(vals[i], r.Slowdown())
		}
	}
	for i := range rows {
		rows[i].Stats = Summarize(vals[i])
	}
	return rows
}

func bucketBounds(edges []int64) []BucketRow {
	rows := make([]BucketRow, len(edges))
	for i := range rows {
		lo := int64(0)
		if i > 0 {
			lo = edges[i-1]
		}
		rows[i] = BucketRow{Lo: lo, Hi: edges[i]}
	}
	return rows
}

func (st *fctStream) rows(edges []int64) []BucketRow {
	if edges == nil {
		edges = st.edges
	}
	if len(edges) != len(st.edges) {
		panic("stats: streaming FCTSet bucketed with foreign edges")
	}
	for i, e := range edges {
		if st.edges[i] != e {
			panic("stats: streaming FCTSet bucketed with foreign edges")
		}
	}
	rows := bucketBounds(edges)
	for i := range rows {
		rows[i].Stats = st.buckets[i].Summary()
	}
	return rows
}

// WebSearchEdges are Figure 10's x-axis flow-size buckets.
func WebSearchEdges() []int64 {
	return []int64{6_700, 20_000, 30_000, 50_000, 73_000, 200_000, 1_000_000, 2_000_000, 5_000_000, 30_000_000}
}

// FBHadoopEdges are Figure 11's x-axis flow-size buckets.
func FBHadoopEdges() []int64 {
	return []int64{324, 400, 500, 600, 700, 1_000, 7_000, 46_000, 120_000, 10_000_000}
}
