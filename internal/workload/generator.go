package workload

import (
	"fmt"
	"math"

	"hpcc/internal/host"
	"hpcc/internal/sim"
	"hpcc/internal/topology"
)

// Env is the per-generator environment a scenario runner supplies at
// install time: the NIC rate, arrival window, flow cap, completion
// observers, seed and event rank. Specs carry only their traffic
// pattern, so one spec value composes into many scenarios. Generators
// installed as traffic element i of a scenario receive
// Seed = scenarioSeed + i, keeping multi-generator runs deterministic
// and decorrelated.
type Env struct {
	HostRate sim.Rate
	Until    sim.Time // arrival window end (0 = unlimited)
	MaxFlows int      // default cap on arrivals: flows, requests, incast events (0 = unlimited)
	// OnDone observes each completed sender flow.
	OnDone func(*host.Flow)
	// OnRead observes each completed RDMA READ at the requester:
	// endpoints, response size and request-to-last-byte elapsed time.
	OnRead func(requester, responder int, size int64, elapsed sim.Time)
	Seed   int64
	// Key is the canonical rank of this generator's arrival events
	// (sim.ArrivalKey(i) for traffic element i). Scenario runners set
	// it so simultaneous arrivals order by generator, not by engine
	// scheduling history; every result digest depends on that order.
	// Zero (standalone use) falls back to scheduling order.
	Key uint64
}

// Generator is a composable traffic source: anything that can install
// arrivals on a built network. All the paper's patterns (Poisson,
// incast) and the extensions (all-to-all shuffle, RPC request-response,
// explicit arrival traces) implement it.
type Generator interface {
	// Validate rejects a spec that would hang, panic or generate
	// nonsense on a fabric of the given host count (at least 2). Install
	// assumes it passed.
	Validate(hosts int) error
	Install(nw *topology.Network, env Env)
}

// checkCDF rejects a missing size distribution, and one whose mean is
// not positive, which makes the arrival rate infinite.
func checkCDF(spec string, c *CDF) error {
	if c == nil {
		return fmt.Errorf("workload: %s.CDF: nil", spec)
	}
	if m := c.Mean(); !(m > 0) {
		return fmt.Errorf("workload: %s.CDF: %q has mean size %v, want > 0", spec, c.Name(), m)
	}
	return nil
}

// AllToAllSpec is a shuffle stage: every host ships Size bytes to every
// other host, N·(N−1) flows per round. Rounds run closed-loop — round
// r+1 starts only when every flow of round r has completed, as a
// MapReduce shuffle barrier does. No randomness is involved; the
// pattern is fully deterministic.
type AllToAllSpec struct {
	Size   int64 // > 0
	Rounds int   // ≥ 0, default 1; further rounds start only before Until
}

func (spec AllToAllSpec) Validate(int) error {
	if spec.Size <= 0 {
		return fmt.Errorf("workload: AllToAllSpec.Size: %d bytes, want > 0", spec.Size)
	}
	if spec.Rounds < 0 {
		return fmt.Errorf("workload: AllToAllSpec.Rounds: %d is negative", spec.Rounds)
	}
	return nil
}

// Install starts the first shuffle round immediately.
func (spec AllToAllSpec) Install(nw *topology.Network, env Env) {
	if spec.Rounds == 0 {
		spec.Rounds = 1
	}
	n := len(nw.Hosts)
	rounds := spec.Rounds
	var fire func()
	fire = func() {
		if rounds == 0 {
			return
		}
		rounds--
		pending := n * (n - 1)
		flowDone := func(f *host.Flow) {
			if env.OnDone != nil {
				env.OnDone(f)
			}
			pending--
			if pending == 0 && rounds > 0 && (env.Until == 0 || nw.Eng.Now() <= env.Until) {
				fire()
			}
		}
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if d != s {
					nw.StartFlow(s, d, spec.Size, flowDone)
				}
			}
		}
	}
	fire()
}

// RPCSpec drives the RDMA READ path (§4.2) with request-response
// traffic: requests arrive as an open-loop Poisson process; each picks
// a uniform-random requester/responder pair and the requester issues a
// READ whose response size is drawn from CDF (or the fixed Size). Load
// is the target average link load contributed by response bytes, the
// same convention PoissonSpec uses for one-way flows.
type RPCSpec struct {
	// Size is the fixed response size when CDF is nil: > 0.
	Size int64
	// CDF, if set, draws each response size instead: of positive mean.
	CDF  *CDF
	Load float64 // finite and > 0
	// MaxRequests caps total requests: ≥ 0, 0 = env.MaxFlows.
	MaxRequests int
}

func (spec RPCSpec) Validate(int) error {
	if spec.CDF != nil {
		if err := checkCDF("RPCSpec", spec.CDF); err != nil {
			return err
		}
	} else if spec.Size <= 0 {
		return fmt.Errorf("workload: RPCSpec.Size: %d bytes and no CDF, want a size > 0 or a CDF", spec.Size)
	}
	if !(spec.Load > 0) || math.IsInf(spec.Load, 1) {
		return fmt.Errorf("workload: RPCSpec.Load: load %v, want finite and > 0", spec.Load)
	}
	if spec.MaxRequests < 0 {
		return fmt.Errorf("workload: RPCSpec.MaxRequests: %d is negative, not unlimited", spec.MaxRequests)
	}
	return nil
}

// Install starts the request process. Completion is observed at the
// requester (last response byte arrived in order) through env.OnRead.
func (spec RPCSpec) Install(nw *topology.Network, env Env) {
	rng := sim.NewRNG(env.Seed, "rpc")
	mean := float64(spec.Size)
	if spec.CDF != nil {
		mean = spec.CDF.Mean()
	}
	openLoop(nw, env, rng, spec.MaxRequests, spec.Load, mean, func(req, resp int) {
		size := spec.Size
		if spec.CDF != nil {
			size = spec.CDF.Sample(rng)
		}
		issuedAt := nw.Eng.Now()
		nw.StartRead(req, resp, size, func() {
			if env.OnRead != nil {
				env.OnRead(req, resp, size, nw.Eng.Now()-issuedAt)
			}
		})
	})
}

// FlowSpec is one explicitly scheduled flow arrival.
type FlowSpec struct {
	At       sim.Time
	Src, Dst int
	Size     int64
}

// FlowList replays a fixed arrival trace — the simplest custom traffic
// source. Every size is > 0, every endpoint a host index, and no flow
// sends to its own source: RoCE NICs do not hairpin.
type FlowList []FlowSpec

func (spec FlowList) Validate(hosts int) error {
	for i, f := range spec {
		if f.Size <= 0 {
			return fmt.Errorf("workload: FlowList[%d].Size: %d bytes, want > 0", i, f.Size)
		}
		if f.Src < 0 || f.Src >= hosts || f.Dst < 0 || f.Dst >= hosts {
			return fmt.Errorf("workload: FlowList[%d]: %d -> %d, want hosts in [0, %d)", i, f.Src, f.Dst, hosts)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("workload: FlowList[%d]: %d -> %d, want Src != Dst", i, f.Src, f.Dst)
		}
	}
	return nil
}

// Install schedules every listed arrival at its absolute time.
// Arrivals past the env's window (Until > 0) are dropped, matching
// every other generator's horizon contract.
func (spec FlowList) Install(nw *topology.Network, env Env) {
	for _, f := range spec {
		if env.Until > 0 && f.At > env.Until {
			continue
		}
		f := f
		start := func() { nw.StartFlow(f.Src, f.Dst, f.Size, env.OnDone) }
		if f.At <= nw.Eng.Now() {
			start()
		} else {
			nw.Eng.AtKey(f.At, env.Key, start)
		}
	}
}

// ArrivalFunc is a lazy arrival iterator: called with i = 0, 1, 2, …,
// it returns the i-th arrival and whether one exists. Arrival times
// must be nondecreasing; the iterator is pulled one arrival ahead, so
// unbounded streams cost one pending event at a time.
type ArrivalFunc func(i int) (FlowSpec, bool)

// Validate accepts every iterator: its arrivals exist only once
// Install pulls them.
func (ArrivalFunc) Validate(int) error { return nil }

// Install pulls and schedules arrivals until the iterator ends or the
// env's arrival window closes.
func (spec ArrivalFunc) Install(nw *topology.Network, env Env) {
	var pull func(i int)
	pull = func(i int) {
		f, ok := spec(i)
		if !ok {
			return
		}
		if env.Until > 0 && f.At > env.Until {
			return
		}
		start := func() {
			nw.StartFlow(f.Src, f.Dst, f.Size, env.OnDone)
			pull(i + 1)
		}
		if f.At <= nw.Eng.Now() {
			start()
		} else {
			nw.Eng.AtKey(f.At, env.Key, start)
		}
	}
	pull(0)
}
