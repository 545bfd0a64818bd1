package experiment

import (
	"fmt"

	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// Scale bounds a load experiment's cost. The paper drives its testbed
// and 320-server simulation for seconds; the defaults here are sized
// for CI, and cmd/hpccexp exposes flags to grow them toward paper
// scale.
type Scale struct {
	MaxFlows int
	Until    sim.Time
	Drain    sim.Time
	Seed     int64
}

func (s *Scale) normalize(flows int) {
	if s.MaxFlows == 0 {
		s.MaxFlows = flows
	}
	if s.Until == 0 {
		s.Until = 20 * sim.Millisecond
	}
	if s.Drain == 0 {
		s.Drain = 30 * sim.Millisecond
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// load is the cell every load figure starts from: scheme on topo under
// traffic, lossless, with the scale's flow cap, windows and seed.
func (s Scale) load(scheme Scheme, topo Topo, traffic ...workload.Generator) LoadScenario {
	return LoadScenario{
		Scheme:   scheme,
		Topo:     topo,
		Traffic:  traffic,
		MaxFlows: s.MaxFlows,
		Until:    s.Until,
		Drain:    s.Drain,
		PFC:      true,
		Seed:     s.Seed,
	}
}

// fatTree is load on the FatTree, its switch buffer scaled to the
// fabric (BufferFor).
func (s Scale) fatTree(scheme Scheme, spec topology.FatTreeSpec, traffic ...workload.Generator) LoadScenario {
	ls := s.load(scheme, FatTreeTopo(spec), traffic...)
	ls.BufferBytes = BufferFor(spec.NumHosts())
	return ls
}

// fatTreeOrScaled is the FatTree a large-scale figure runs on: spec, or
// the CI-sized one when spec is the zero value.
func fatTreeOrScaled(spec topology.FatTreeSpec) topology.FatTreeSpec {
	if spec.Cores == 0 {
		return topology.ScaledFatTree()
	}
	return spec
}

// fanIn is the paper's 60-to-1 incast, cut to n/div senders on a fabric
// of n hosts too small to keep it meaningful.
func fanIn(spec topology.FatTreeSpec, div int) int {
	if n := spec.NumHosts(); 60 >= n/2 {
		return n / div
	}
	return 60
}

// Grid is one figure's results: Results[r][c] is the run of row r and
// column c — a *LoadResult for a load figure, a *StarRun for a
// micro-benchmark. A figure declares its cells through runGrid and
// renders its tables from the grid alone.
type Grid[R any] struct {
	Rows, Cols []string
	Results    [][]R
}

// runGrid runs run(cell(r, c)) for every row and column, each an
// independent run on its own engine.
func runGrid[C, R any](rows, cols []string, cell func(r, c int) C, run func(C) R) *Grid[R] {
	g := &Grid[R]{Rows: rows, Cols: cols, Results: make([][]R, len(rows))}
	for r := range rows {
		g.Results[r] = make([]R, len(cols))
		for c := range cols {
			g.Results[r][c] = run(cell(r, c))
		}
	}
	return g
}

// schemeLabels are the schemes' names, in order: a grid axis.
func schemeLabels(schemes []Scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.Name
	}
	return out
}

// labels formats each value through format, for a grid axis.
func labels[T any](format string, xs ...T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}

// loadLabels formats each offered load (a fraction) as a percentage
// through format, for a grid axis.
func loadLabels(format string, loads ...float64) []string {
	pct := make([]float64, len(loads))
	for i, l := range loads {
		pct[i] = l * 100
	}
	return labels(format, pct...)
}

// fctTable renders the per-bucket FCT slowdown panel: one row per
// flow-size bucket of edges, holding for each result the cells that
// cell makes of the bucket's slowdown statistics. cols heads those
// cells.
func fctTable(title string, cols []string, edges []int64, results []*LoadResult, cell func(stats.Summary) []string) *Table {
	t := &Table{Title: title, Cols: append([]string{"size"}, cols...)}
	buckets := make([][]stats.BucketRow, len(results))
	for i, r := range results {
		buckets[i] = r.FCT.Buckets(edges)
	}
	for b, hi := range edges {
		row := []string{sizeLabel(hi)}
		for _, rows := range buckets {
			row = append(row, cell(rows[b].Stats)...)
		}
		t.AddRow(row...)
	}
	return t
}

// p95 is the cell of the panels that plot the 95th-percentile slowdown.
func p95(s stats.Summary) []string { return []string{f2(s.P95)} }
