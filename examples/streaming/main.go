// Streaming: watch an experiment's statistics while it runs instead of
// waiting for the final summary. A StatsObserver flushes one window of
// statistics every 1 ms of virtual time — queue-depth percentiles over
// the window, plus cumulative flow counts and slowdown percentiles
// — all drawn from constant-memory sketches, so a flush costs the same
// whether the run has absorbed a thousand flows or a million.
//
// The run itself uses SketchStats, the streaming statistics mode: the
// result's percentiles come from quantile sketches (within 1%
// of exact) and retained stat memory stays a few KB
// regardless of flow count — the mode long campaigns run in.
package main

import (
	"fmt"
	"log"
	"time"

	"hpcc"
)

func main() {
	fmt.Println("window-end   q-p50(KB)  q-p99(KB)  q-max(KB)   flows  sd-p50  sd-p99")
	res, err := hpcc.Experiment{
		Scheme:   "hpcc",
		Topology: hpcc.Pod{},
		Traffic: []hpcc.Traffic{
			hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: 0.5},
		},
		Horizon:  10 * time.Millisecond,
		Drain:    25 * time.Millisecond,
		MaxFlows: 600,
		// Streaming statistics: sketch-backed percentiles, flat memory.
		SketchStats: true,
		Observers: []hpcc.Observer{
			hpcc.StatsObserver{
				OnFlush: func(f hpcc.StatsFlush) {
					fmt.Printf("%10v  %9.1f  %9.1f  %9.1f  %6d  %6.2f  %6.2f\n",
						f.End, f.QueueP50KB, f.QueueP99KB, f.QueueMaxKB,
						f.Flows, f.SlowdownP50, f.SlowdownP99)
				},
			},
		},
	}.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nfinal summary (sketch-backed, within 1% of exact):")
	fmt.Printf("flows      %d completed, %d censored\n", res.Flows, res.Censored)
	fmt.Printf("slowdown   p50 %.2f  p95 %.2f  p99 %.2f  p99.9 %.2f\n",
		res.SlowdownP50, res.SlowdownP95, res.SlowdownP99, res.SlowdownP999)
	fmt.Printf("queue      p50 %.1f KB  p99 %.1f KB  max %.1f KB\n",
		res.QueueP50KB, res.QueueP99KB, res.QueueMaxKB)
	fmt.Printf("stat mem   %d B retained — O(sketch buckets), not O(flows)\n",
		res.RetainedStatBytes)
}
