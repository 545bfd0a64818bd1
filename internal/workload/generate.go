package workload

import (
	"fmt"
	"math"
	"math/rand"

	"hpcc/internal/sim"
	"hpcc/internal/topology"
)

// PoissonSpec drives an open-loop flow arrival process: flows between
// uniform-random host pairs, sizes from a CDF, exponential inter-
// arrivals tuned so the average host uplink carries Load of its
// capacity — the standard harness the paper uses at 30% and 50% load.
type PoissonSpec struct {
	CDF      *CDF    // non-nil, of positive mean
	Load     float64 // target average link load, e.g. 0.3: finite and ≥ 0
	MaxFlows int     // caps arrivals to bound runtimes: ≥ 0, 0 = env.MaxFlows
}

func (spec PoissonSpec) Validate(int) error {
	if err := checkCDF("PoissonSpec", spec.CDF); err != nil {
		return err
	}
	if !(spec.Load >= 0) || math.IsInf(spec.Load, 1) {
		return fmt.Errorf("workload: PoissonSpec.Load: load %v, want finite and ≥ 0", spec.Load)
	}
	if spec.MaxFlows < 0 {
		return fmt.Errorf("workload: PoissonSpec.MaxFlows: %d is negative, not unlimited", spec.MaxFlows)
	}
	return nil
}

// Install starts the arrivals. Arrival rate:
// λ = Load × N_hosts × env.HostRate / E[size] (in flows/sec), matching
// the convention of the paper's public simulator.
func (spec PoissonSpec) Install(nw *topology.Network, env Env) {
	rng := sim.NewRNG(env.Seed, "poisson")
	openLoop(nw, env, rng, spec.MaxFlows, spec.Load, spec.CDF.Mean(), func(src, dst int) {
		nw.StartFlow(src, dst, spec.CDF.Sample(rng), env.OnDone)
	})
}

// openLoop runs the open-loop arrival process PoissonSpec and RPCSpec
// share: exponential gaps tuned so arrivals of meanSize bytes carry
// load of the average host's rate, each between a uniform-random
// ordered host pair, until maxArrivals (0 = env.MaxFlows, then 0 =
// unlimited) have started or env.Until has passed. start draws the
// arrival's size from rng and begins it; rng's draw order per arrival
// is pair, size, gap, and the next arrival is scheduled after start.
func openLoop(nw *topology.Network, env Env, rng *rand.Rand, maxArrivals int, load, meanSize float64, start func(src, dst int)) {
	if maxArrivals == 0 {
		maxArrivals = env.MaxFlows
	}
	n := len(nw.Hosts)
	bytesPerSec := load * float64(n) * env.HostRate.BytesPerSec()
	lambda := bytesPerSec / meanSize // arrivals per second
	if lambda <= 0 {
		return
	}
	meanGapPs := float64(sim.Second) / lambda
	started := 0
	var arrive func()
	arrive = func() {
		if maxArrivals > 0 && started >= maxArrivals {
			return
		}
		if env.Until > 0 && nw.Eng.Now() > env.Until {
			return
		}
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		start(src, dst)
		started++
		nw.Eng.AfterKey(sim.Time(rng.ExpFloat64()*meanGapPs), env.Key, arrive)
	}
	nw.Eng.AfterKey(sim.Time(rng.ExpFloat64()*meanGapPs), env.Key, arrive)
}

// IncastSpec schedules periodic fan-in events: FanIn random senders
// each ship Size bytes to one random receiver. The period is derived so
// incast traffic totals LoadFrac of the aggregate host capacity — the
// paper's setup is 60-to-1 × 500 KB at 2% load (§5.3).
type IncastSpec struct {
	FanIn    int     // ≥ 2; capped at the host count − 1
	Size     int64   // > 0
	LoadFrac float64 // finite and > 0
}

func (spec IncastSpec) Validate(int) error {
	if spec.FanIn < 2 {
		return fmt.Errorf("workload: IncastSpec.FanIn: %d, want at least 2", spec.FanIn)
	}
	if spec.Size <= 0 {
		return fmt.Errorf("workload: IncastSpec.Size: %d bytes, want > 0", spec.Size)
	}
	if !(spec.LoadFrac > 0) || math.IsInf(spec.LoadFrac, 1) {
		return fmt.Errorf("workload: IncastSpec.LoadFrac: load fraction %v, want finite and > 0", spec.LoadFrac)
	}
	return nil
}

// Install starts the incast events, the first half a period in, until
// env.MaxFlows of them (0 = unlimited; a period of 0 ps needs it) have
// fired or env.Until has passed. An event is one arrival of FanIn flows.
func (spec IncastSpec) Install(nw *topology.Network, env Env) {
	rng := sim.NewRNG(env.Seed, "incast")
	n := len(nw.Hosts)
	fanIn := min(spec.FanIn, n-1)
	eventBytes := float64(fanIn) * float64(spec.Size)
	capacityBps := float64(n) * env.HostRate.BytesPerSec()
	period := sim.Time(eventBytes / (capacityBps * spec.LoadFrac) * float64(sim.Second))
	events := 0
	var fire func()
	fire = func() {
		if env.MaxFlows > 0 && events == env.MaxFlows || env.Until > 0 && nw.Eng.Now() > env.Until {
			return
		}
		events++
		recv := rng.Intn(n)
		senders := rng.Perm(n)
		cnt := 0
		for _, s := range senders {
			if s == recv {
				continue
			}
			nw.StartFlow(s, recv, spec.Size, env.OnDone)
			cnt++
			if cnt == fanIn {
				break
			}
		}
		nw.Eng.AfterKey(period, env.Key, fire)
	}
	nw.Eng.AfterKey(period/2, env.Key, fire)
}
