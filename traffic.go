package hpcc

import (
	"time"

	"hpcc/internal/stats"
	"hpcc/internal/workload"
)

// Traffic describes a composable traffic source installed on an
// Experiment's fabric: Poisson background load, incast bursts,
// all-to-all shuffles, RPC request-response over the RDMA READ path,
// or explicit arrival schedules. Multiple Traffic values compose on
// one fabric; generator i of an Experiment draws its randomness from
// Seed+i, so results depend only on the specs and the seed.
//
// Each source only converts units into the internal generator it stands
// for, whose validation rejects a value out of range (see the README's
// table) before anything runs. The interface is sealed; custom arrival
// patterns are expressed with Schedule or ArrivalFunc.
type Traffic interface {
	generator() workload.Generator
}

// CDF is a flow-size distribution for Poisson and RPC traffic. The
// zero value defaults to the WebSearch distribution.
type CDF struct {
	inner *workload.CDF
}

// WebSearchCDF returns the DCTCP web-search flow-size distribution the
// testbed evaluation uses (§5.1).
func WebSearchCDF() CDF { return CDF{workload.WebSearch()} }

// FBHadoopCDF returns the Facebook Hadoop-cluster distribution the
// simulation evaluation uses (§5.3).
func FBHadoopCDF() CDF { return CDF{workload.FBHadoop()} }

// CDFFromFile loads a distribution from a "<bytes> <probability>" text
// file — the format the public ns-3 HPCC harness ships its traces in.
// Probabilities may be on a 0–1 or 0–100 scale.
func CDFFromFile(path string) (CDF, error) {
	c, err := workload.CDFFromFile(path)
	if err != nil {
		return CDF{}, err
	}
	return CDF{c}, nil
}

// CDFPoint is one knot of a piecewise-linear CDF.
type CDFPoint struct {
	Bytes int64
	Prob  float64
}

// NewCDF builds a distribution from explicit knots: sizes in
// [0, 2^53] bytes, sorted by size, nondecreasing probability, from 0
// to 1.
func NewCDF(name string, points []CDFPoint) (CDF, error) {
	ps := make([]workload.Point, len(points))
	for i, p := range points {
		ps[i] = workload.Point{Bytes: p.Bytes, Prob: p.Prob}
	}
	c, err := workload.NewCDF(name, ps)
	if err != nil {
		return CDF{}, err
	}
	return CDF{c}, nil
}

// Name returns the distribution's name ("" for the zero value).
func (c CDF) Name() string {
	if c.inner == nil {
		return ""
	}
	return c.inner.Name()
}

func (c CDF) cdf() *workload.CDF {
	if c.inner == nil {
		return workload.WebSearch()
	}
	return c.inner
}

// edges returns the flow-size bucket edges natural to the
// distribution: the paper's published figure edges for the two public
// workloads, the CDF's own knots otherwise.
func (c CDF) edges() []int64 {
	w := c.cdf()
	switch w.Name() {
	case "WebSearch":
		return stats.WebSearchEdges()
	case "FB_Hadoop":
		return stats.FBHadoopEdges()
	}
	return w.Edges()
}

// Poisson is open-loop background load: flows between uniform-random
// host pairs, sizes drawn from CDF, exponential inter-arrivals tuned
// so the average host uplink carries Load of its capacity (§5.1's
// harness convention).
type Poisson struct {
	CDF CDF
	// Load is the target average link load, e.g. 0.3: finite and ≥ 0.
	Load float64
	// MaxFlows caps arrivals: ≥ 0, 0 uses the Experiment default.
	MaxFlows int
}

func (t Poisson) generator() workload.Generator {
	return workload.PoissonSpec{CDF: t.CDF.cdf(), Load: t.Load, MaxFlows: t.MaxFlows}
}

// Incast schedules periodic fan-in events: FanIn random senders each
// ship FlowSizeBytes to one random receiver, with the period derived
// so incast traffic totals LoadFraction of the aggregate host capacity
// — the paper's §5.3 setup is 60-to-1 × 500 KB at 2%.
type Incast struct {
	FanIn         int
	FlowSizeBytes int64
	LoadFraction  float64 // finite and > 0
}

func (t Incast) generator() workload.Generator {
	return workload.IncastSpec{FanIn: t.FanIn, Size: t.FlowSizeBytes, LoadFrac: t.LoadFraction}
}

// AllToAll is a shuffle stage: every host ships FlowSizeBytes to every
// other host — N·(N−1) concurrent flows per round. Rounds run
// closed-loop: the next round starts when every flow of the previous
// one has completed, like a MapReduce shuffle barrier.
type AllToAll struct {
	FlowSizeBytes int64
	Rounds        int // default 1
}

func (t AllToAll) generator() workload.Generator {
	return workload.AllToAllSpec{Size: t.FlowSizeBytes, Rounds: t.Rounds}
}

// RPC is request-response traffic over the RDMA READ path (§4.2):
// requests arrive Poisson; each picks a uniform-random requester/
// responder pair and the requester pulls a response of ResponseBytes
// (or a size drawn from ResponseCDF) from the responder. Load is the
// average link load contributed by response bytes. Completions are
// measured at the requester — request issue to last response byte —
// and feed the result's FCT statistics like ordinary flows.
type RPC struct {
	ResponseBytes int64
	// ResponseCDF, if set, draws each response size instead.
	ResponseCDF *CDF
	Load        float64 // finite and > 0
	// MaxRequests caps requests: ≥ 0, 0 uses the Experiment default.
	MaxRequests int
}

func (t RPC) generator() workload.Generator {
	spec := workload.RPCSpec{Size: t.ResponseBytes, Load: t.Load, MaxRequests: t.MaxRequests}
	if t.ResponseCDF != nil {
		spec.CDF = t.ResponseCDF.cdf()
	}
	return spec
}

// FlowSpec is one explicitly scheduled flow arrival.
type FlowSpec struct {
	At        time.Duration
	Src, Dst  int
	SizeBytes int64
}

// Schedule replays an explicit arrival trace — the simplest custom
// traffic source.
type Schedule []FlowSpec

func (t Schedule) generator() workload.Generator {
	fl := make(workload.FlowList, len(t))
	for i, f := range t {
		fl[i] = workload.FlowSpec{At: toSim(f.At), Src: f.Src, Dst: f.Dst, Size: f.SizeBytes}
	}
	return fl
}

// ArrivalFunc is a lazy custom arrival iterator: called with
// i = 0, 1, 2, …, it returns the i-th arrival and whether one exists.
// Arrival times must be nondecreasing; the iterator is pulled one
// arrival ahead, so unbounded streams are cheap.
type ArrivalFunc func(i int) (FlowSpec, bool)

func (t ArrivalFunc) generator() workload.Generator {
	return workload.ArrivalFunc(func(i int) (workload.FlowSpec, bool) {
		f, ok := t(i)
		return workload.FlowSpec{At: toSim(f.At), Src: f.Src, Dst: f.Dst, Size: f.SizeBytes}, ok
	})
}
