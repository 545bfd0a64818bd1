// Command bench is the repo's performance benchmark: four workloads,
// six bounded end-to-end metrics plus a failure count, and per-layer
// attribution taken from outside the simulator (deterministic counts,
// micro-drivers, one pprof-traced run per workload). README.md has the
// metric table and the measured sizing; BENCHMARK.json is the contract
// the PR driver runs.
//
// Usage:
//
//	go run ./bench [-reps 5] [-seed 1] [-out bench-result.json]   every workload, traced runs, micro-drivers
//	go run ./bench -compare a.json b.json                         gate b against a
//	go run ./bench --workload W --seed N --seconds S --trace 0|1  one driver run; result is the last stdout line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload and print the driver's result line (default: all, full report)")
		seed     = fs.Int64("seed", 1, "seed every workload derives its inputs from")
		seconds  = fs.Int("seconds", 10, "with -workload: measure for about this long (as many ≈2 s units as fit, at least 3)")
		trace    = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		reps     = fs.Int("reps", 5, "untraced units per workload in the full report")
		out      = fs.String("out", "bench-result.json", "full report: write the JSON document here")
		smoke    = fs.Bool("smoke", false, "cut every workload to under a second, reps 2, one short micro loop, in-process")
		compare  = fs.Bool("compare", false, "compare two JSON documents: bench -compare a.json b.json")
		child    = fs.Bool("child", false, "internal: run one unit in this process and print its result")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	start := runner(spawnUnit)
	if *smoke {
		start = runUnit
		*reps = 2
	}

	switch {
	case *child:
		u := runUnit(unitSpec{Workload: *workload, Seed: *seed, Smoke: *smoke, Traced: *trace == 1})
		if err := json.NewEncoder(stdout).Encode(&u); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *workload != "":
		if _, err := newWorkload(*workload, *seed, *smoke); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return driverRun(start, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *smoke, stdout, stderr)
	default:
		return fullRun(start, *seed, *reps, *smoke, *out, stdout, stderr)
	}
}

// driverResult is the one-line result the PR driver reads.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracedUnits is how many runs under pprof one traced report averages:
// a ≈2 s unit yields only ≈200 samples at the profiler's 100 Hz.
func tracedUnits(smoke bool) int {
	if smoke {
		return 1
	}
	return 3
}

// unitCount sizes a run to the time budget from its first unit: as many
// units as fit, at least three so the median can reject a disturbed one.
func unitCount(budget time.Duration, first *unitResult) int {
	k := 3
	if first.Failure == "" && first.WallS > 0 {
		k = int(math.Round(budget.Seconds() / first.WallS))
	}
	return min(max(k, 3), 15)
}

// driverRun is one run as the PR driver starts it. Untraced: fresh
// child runs (units) of the workload for about the budget, reduced to
// the end-to-end medians. Traced: three untraced units for the overhead
// baseline, three under pprof, and the micro-drivers.
func driverRun(start runner, name string, seed int64, budget time.Duration, traced, smoke bool, stdout, stderr io.Writer) int {
	spec := unitSpec{Workload: name, Seed: seed, Smoke: smoke}
	units := []unitResult{start(spec)}
	k := unitCount(budget, &units[0])
	if smoke {
		k = 2
	} else if traced {
		k = 3
	}
	for len(units) < k {
		units = append(units, start(spec))
	}
	defs, values := endToEndDefs, map[string]float64{}
	e2e := endToEnd(units)
	if traced {
		spec.Traced = true
		for i := 0; i < tracedUnits(smoke); i++ {
			units = append(units, start(spec))
		}
		micro, err := runMicro(microDefaults(smoke))
		if err != nil {
			fmt.Fprintln(stderr, "bench: micro-drivers:", err)
			return 1
		}
		defs, values = perLayerDefs, perLayer(units[k:], e2e["wall_s"].Median, micro)
	} else {
		for name, s := range e2e {
			values[name] = s.Median
		}
	}

	res := driverResult{Correct: true, Attempted: len(units), Metrics: map[string]driverMetric{}}
	for i := range units {
		fmt.Fprintf(stdout, "%s seed %d unit %d: wall %.3fs cpu %.3fs digest %.16s %s\n",
			name, seed, i+1, units[i].WallS, units[i].CPUS, units[i].Digest, units[i].Failure)
		if units[i].Failure != "" {
			res.Failed++
			fmt.Fprintf(stderr, "bench: %s unit %d failed: %s\n", name, i+1, units[i].Failure)
		}
		if units[i].Digest != units[0].Digest {
			res.Correct = false
			fmt.Fprintf(stderr, "bench: %s unit %d: result_digest differs from unit 1\n", name, i+1)
		}
	}
	if res.Failed > 0 && (traced || res.Failed == len(units)) {
		return 1 // nothing trustworthy measured: no result line
	}
	res.Correct = res.Correct && res.Failed == 0
	for _, d := range defs {
		res.Metrics[d.Name] = driverMetric{values[d.Name], d.Unit}
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	line, err := json.Marshal(&res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err) // a NaN or Inf metric
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
