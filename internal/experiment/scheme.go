// Package experiment reproduces every table and figure of the HPCC
// paper's evaluation (§2.3 motivation, §5.2 testbed, §5.3 simulations,
// §5.4 design choices), each emitting the same rows/series the paper
// plots. The load figures are grids: each declares its cluster-load
// runs as LoadScenario cells (runGrid) and renders its tables from the
// resulting Grid alone. The micro-benchmarks drive a fabric by hand.
package experiment

import (
	"fmt"

	"hpcc/internal/cc"
	"hpcc/internal/cc/dcqcn"
	"hpcc/internal/cc/dctcp"
	hpcccc "hpcc/internal/cc/hpcc"
	"hpcc/internal/cc/timely"
	"hpcc/internal/sim"
)

// Scheme bundles a congestion-control factory with the data-plane
// features it needs (INT stamping, ECN marking with scheme-specific
// thresholds).
type Scheme struct {
	Name    string
	Factory cc.Factory
	// INT makes hosts carry the 42-byte INT header and switches stamp
	// telemetry (HPCC family only).
	INT bool
	// ECN makes switches WRED-mark; Kmin/Kmax return the thresholds for
	// a given bottleneck rate (the paper scales them with bandwidth,
	// §5.1).
	ECN        bool
	Kmin, Kmax func(r sim.Rate) int64
}

// HPCC returns the HPCC scheme (or one of its ablation variants,
// depending on cfg).
func HPCC(cfg hpcccc.Config) Scheme {
	name := hpcccc.New(cfg)().Name()
	return Scheme{Name: name, Factory: hpcccc.New(cfg), INT: true}
}

// DCQCN returns the DCQCN scheme with the paper's ECN scaling:
// Kmin = 100KB × Bw/25G, Kmax = 400KB × Bw/25G (§5.1).
func DCQCN(cfg dcqcn.Config) Scheme {
	return DCQCNWithECN(cfg, 100<<10, 400<<10)
}

// DCQCNWithECN returns DCQCN with explicit ECN thresholds expressed at
// the 25 Gbps reference rate (used by the Figure 3 sweep).
func DCQCNWithECN(cfg dcqcn.Config, kminAt25G, kmaxAt25G int64) Scheme {
	name := dcqcn.New(cfg)().Name()
	return Scheme{
		Name:    name,
		Factory: dcqcn.New(cfg),
		ECN:     true,
		Kmin:    func(r sim.Rate) int64 { return kminAt25G * int64(r) / int64(25*sim.Gbps) },
		Kmax:    func(r sim.Rate) int64 { return kmaxAt25G * int64(r) / int64(25*sim.Gbps) },
	}
}

// TIMELY returns the TIMELY scheme (RTT-based; no ECN, no INT).
func TIMELY(cfg timely.Config) Scheme {
	name := timely.New(cfg)().Name()
	return Scheme{Name: name, Factory: timely.New(cfg)}
}

// DCTCP returns the DCTCP scheme with Kmin = Kmax = 30KB × Bw/10G
// (§5.1).
func DCTCP(cfg dctcp.Config) Scheme {
	k := func(r sim.Rate) int64 { return 30 << 10 * int64(r) / int64(10*sim.Gbps) }
	return Scheme{Name: "DCTCP", Factory: dctcp.New(cfg), ECN: true, Kmin: k, Kmax: k}
}

// ByName resolves a scheme from its CLI spelling.
func ByName(name string) (Scheme, error) {
	switch name {
	case "hpcc":
		return HPCC(hpcccc.Config{}), nil
	case "hpcc-rxrate":
		return HPCC(hpcccc.Config{UseRxRate: true}), nil
	case "hpcc-perack":
		return HPCC(hpcccc.Config{Reaction: hpcccc.PerAck}), nil
	case "hpcc-perrtt":
		return HPCC(hpcccc.Config{Reaction: hpcccc.PerRTT}), nil
	case "dcqcn":
		return DCQCN(dcqcn.Config{}), nil
	case "dcqcn+win":
		return DCQCN(dcqcn.Config{Window: true}), nil
	case "timely":
		return TIMELY(timely.Config{}), nil
	case "timely+win":
		return TIMELY(timely.Config{Window: true}), nil
	case "dctcp":
		return DCTCP(dctcp.Config{}), nil
	default:
		return Scheme{}, fmt.Errorf("experiment: unknown scheme %q (want hpcc, hpcc-rxrate, hpcc-perack, hpcc-perrtt, dcqcn, dcqcn+win, timely, timely+win, dctcp)", name)
	}
}

// Fig11Schemes returns the six schemes of Figure 11 in plot order.
func Fig11Schemes() []Scheme {
	return []Scheme{
		DCQCN(dcqcn.Config{}),
		TIMELY(timely.Config{}),
		DCQCN(dcqcn.Config{Window: true}),
		TIMELY(timely.Config{Window: true}),
		DCTCP(dctcp.Config{}),
		HPCC(hpcccc.Config{}),
	}
}
