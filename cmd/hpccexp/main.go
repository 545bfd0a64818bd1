// Command hpccexp runs campaigns over the experiment scenario
// catalogue — every figure and ablation of the HPCC paper plus the
// extra scenarios listed in the same table. Jobs fan out
// across a bounded worker pool with deterministic per-job seeding, so
// output is byte-identical whatever -parallel is.
//
// Usage:
//
//	hpccexp [flags] <scenario|family|glob|all>...
//	hpccexp -list
//
// Selectors are exact names ("fig11"), family prefixes ("fig9" runs
// every fig9-* job, "ablations" both ablations), path globs ("fig1*"),
// or "all". Examples:
//
//	hpccexp -list
//	hpccexp fig2 fig3
//	hpccexp -parallel 8 all
//	hpccexp -seeds 5 -json fig10 > fig10.json
//
// The default scale is CI-friendly; -scale bench roughly quadruples the
// flow counts, -scale paper uses the full 320-host FatTree (slow).
// Per-job wall-clock/event-count timing goes to stderr (-timing=false
// to silence).
package main

import (
	"flag"
	"fmt"
	"os"

	"hpcc/internal/campaign"
	"hpcc/internal/experiment"
	"hpcc/internal/report"
	"hpcc/internal/sim"
	"hpcc/internal/topology"
)

func main() {
	var (
		scaleName = flag.String("scale", "default", "experiment scale: default, bench, paper")
		seed      = flag.Int64("seed", 1, "base RNG seed")
		seeds     = flag.Int("seeds", 1, "replicates per scenario; >1 aggregates cells to mean±95% CI")
		parallel  = flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
		list      = flag.Bool("list", false, "list registered scenarios and exit")
		asJSON    = flag.Bool("json", false, "emit one JSON document instead of text tables")
		timing    = flag.Bool("timing", true, "print per-job wall-clock/event timing to stderr")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hpccexp [flags] <scenario|family|glob|all>...\n")
		fmt.Fprintf(os.Stderr, "       hpccexp -list\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, s := range experiment.All() {
			fmt.Printf("%-18s %s\n", s.Name, s.Title)
		}
		return
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	sc, fat := scales(*scaleName)
	scens, err := experiment.Match(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpccexp:", err)
		os.Exit(2)
	}

	jobs := make([]campaign.Job, len(scens))
	for i, s := range scens {
		run := s.Run
		jobs[i] = campaign.Job{
			Name: s.Name,
			Run: func(jobSeed int64) []*experiment.Table {
				return run(experiment.Params{Scale: sc, Fat: fat, Seed: jobSeed})
			},
		}
	}

	res := campaign.Run(campaign.Config{Parallel: *parallel, Seeds: *seeds, BaseSeed: *seed}, jobs)
	if *timing {
		report.WriteTiming(os.Stderr, res)
	}

	if *asJSON {
		err = report.WriteJSON(os.Stdout, res, map[string]string{"scale": *scaleName})
	} else {
		err = report.WriteText(os.Stdout, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpccexp:", err)
		os.Exit(1)
	}
	if err := res.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "hpccexp: job failed:", err)
		os.Exit(1)
	}
}

func scales(name string) (experiment.Scale, topology.FatTreeSpec) {
	switch name {
	case "bench":
		return experiment.Scale{MaxFlows: 3000, Until: 40 * sim.Millisecond, Drain: 60 * sim.Millisecond},
			topology.ScaledFatTree()
	case "paper":
		return experiment.Scale{MaxFlows: 20000, Until: 100 * sim.Millisecond, Drain: 200 * sim.Millisecond},
			topology.PaperFatTree()
	default:
		return experiment.Scale{}, topology.ScaledFatTree()
	}
}
