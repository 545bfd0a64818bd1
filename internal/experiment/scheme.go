// Package experiment reproduces every table and figure of the HPCC
// paper's evaluation (§2.3 motivation, §5.2 testbed, §5.3 simulations,
// §5.4 design choices), each emitting the same rows/series the paper
// plots. Every figure but Figure 1 and the Appendix A.2 theory table is
// a grid: it declares independent cells through runGrid and renders its
// tables from the resulting Grid alone. A load figure's cells are
// LoadScenarios run by RunLoad; a micro-benchmark's are star cells —
// a few flows on one switch — run by runStar into a StarRun.
package experiment

import (
	"fmt"
	"strings"

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
func DCTCP() Scheme {
	k := func(r sim.Rate) int64 { return 30 << 10 * int64(r) / int64(10*sim.Gbps) }
	return Scheme{Name: "DCTCP", Factory: dctcp.New(), ECN: true, Kmin: k, Kmax: k}
}

// schemes is the one table of scheme names, in SchemeNames order: the
// paper's Figure-11 schemes, then the HPCC ablation variants.
var schemes = []struct {
	name   string
	scheme Scheme
}{
	{"hpcc", HPCC(hpcccc.Config{})},
	{"dcqcn", DCQCN(dcqcn.Config{})},
	{"timely", TIMELY(timely.Config{})},
	{"dcqcn+win", DCQCN(dcqcn.Config{Window: true})},
	{"timely+win", TIMELY(timely.Config{Window: true})},
	{"dctcp", DCTCP()},
	{"hpcc-rxrate", HPCC(hpcccc.Config{UseRxRate: true})},
	{"hpcc-perack", HPCC(hpcccc.Config{Reaction: hpcccc.PerAck})},
	{"hpcc-perrtt", HPCC(hpcccc.Config{Reaction: hpcccc.PerRTT})},
}

// SchemeNames lists the CLI spellings ByName accepts.
func SchemeNames() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.name
	}
	return names
}

// ByName resolves a scheme from its CLI spelling.
func ByName(name string) (Scheme, error) {
	for _, s := range schemes {
		if s.name == name {
			return s.scheme, nil
		}
	}
	return Scheme{}, fmt.Errorf("experiment: unknown scheme %q (want %s)", name, strings.Join(SchemeNames(), ", "))
}

// ByNameMust resolves a scheme or panics (experiment-internal tables).
func ByNameMust(name string) Scheme {
	s, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Fig11Schemes returns the six schemes of Figure 11 in plot order.
func Fig11Schemes() []Scheme {
	names := []string{"dcqcn", "timely", "dcqcn+win", "timely+win", "dctcp", "hpcc"}
	out := make([]Scheme, len(names))
	for i, n := range names {
		out[i] = ByNameMust(n)
	}
	return out
}
