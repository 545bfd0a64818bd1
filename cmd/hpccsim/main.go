// Command hpccsim runs a single cluster-load scenario — scheme ×
// topology × workload × load — and prints the FCT-slowdown, queue and
// PFC summary.
//
// Examples:
//
//	hpccsim -scheme hpcc -topo pod -workload websearch -load 0.5
//	hpccsim -scheme dcqcn -topo fattree -workload fbhadoop -incast
//	hpccsim -json -scheme hpcc -load 0.5 > result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"hpcc"
	"hpcc/internal/prof"
)

func main() {
	var (
		scheme   = flag.String("scheme", "hpcc", "congestion control: hpcc, dcqcn, dcqcn+win, timely, timely+win, dctcp, hpcc-rxrate, hpcc-perack, hpcc-perrtt")
		topo     = flag.String("topo", "pod", "topology: pod, fattree")
		paper    = flag.Bool("paper-scale", false, "full 320-host FatTree (slow; needs -topo fattree)")
		work     = flag.String("workload", "websearch", "flow sizes: websearch, fbhadoop")
		load     = flag.Float64("load", 0.3, "average link load")
		flows    = flag.Int("flows", 1000, "max generated flows")
		duration = flag.Duration("duration", 20*time.Millisecond, "arrival window (virtual time)")
		drain    = flag.Duration("drain", 30*time.Millisecond, "extra drain time")
		incast   = flag.Bool("incast", false, "add periodic fan-in events (2% of capacity)")
		lossy    = flag.Bool("lossy", false, "disable PFC (go-back-N recovery)")
		sketch   = flag.Bool("sketch", false, "streaming statistics: constant-memory DDSketch quantiles instead of exact per-flow retention")
		accuracy = flag.Float64("stats-accuracy", 0, "sketch relative accuracy with -sketch (0 = default 0.01)")
		seed     = flag.Int64("seed", 1, "RNG seed")
		asJSON   = flag.Bool("json", false, "emit the result as one JSON document")
	)
	profiles := prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpccsim:", err)
		os.Exit(1)
	}

	lossless := !*lossy
	res, err := hpcc.Run(hpcc.SimConfig{
		Scheme:        *scheme,
		Topology:      *topo,
		PaperScale:    *paper,
		Workload:      *work,
		Load:          *load,
		Flows:         *flows,
		Duration:      *duration,
		Drain:         *drain,
		Incast:        *incast,
		Lossless:      &lossless,
		SketchStats:   *sketch,
		StatsAccuracy: *accuracy,
		Seed:          *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpccsim:", err)
		os.Exit(1)
	}
	// Profiles cover the simulation itself; flush before reporting.
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "hpccsim:", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "hpccsim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("scheme        %s\n", res.Scheme)
	fmt.Printf("flows         %d completed, %d censored\n", res.Flows, res.Censored)
	fmt.Printf("slowdown      p50 %.2f   p95 %.2f   p99 %.2f   p99.9 %.2f\n", res.SlowdownP50, res.SlowdownP95, res.SlowdownP99, res.SlowdownP999)
	fmt.Printf("short (<=7K)  p99 %.2f\n", res.ShortFlowP99Slowdown)
	fmt.Printf("queue         p50 %.1f KB   p99 %.1f KB   max %.1f KB\n", res.QueueP50KB, res.QueueP99KB, res.QueueMaxKB)
	fmt.Printf("pfc pause     %.3f%% of port-time\n", res.PFCPauseFraction*100)
	fmt.Printf("drops         %d\n", res.Drops)
	mode := "exact"
	if *sketch {
		mode = "sketch"
	}
	fmt.Printf("stat memory   %d B retained (%s mode)\n", res.RetainedStatBytes, mode)
	fmt.Printf("engine        %d events fired, %d pending at most, %d wire deliveries (%d off-lane)\n", res.Events, res.PendingHighWater, res.Deliveries, res.OffLane)
	fmt.Println("\np95 slowdown by flow size:")
	for _, b := range res.BucketP95 {
		if b.N == 0 {
			continue
		}
		fmt.Printf("  <=%-10d %8.2f   (%d flows)\n", b.SizeHi, b.P95, b.N)
	}
}
