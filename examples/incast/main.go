// Incast: reproduce the paper's headline behaviour — under a 16-to-1
// burst, HPCC drains the queue within a round trip while DCQCN keeps a
// deep standing queue (Figures 9c/9d).
package main

import (
	"fmt"
	"log"
	"time"

	"hpcc"
)

func main() {
	const (
		fanIn    = 16
		flowSize = 500_000
		horizon  = 2 * time.Millisecond
	)
	for _, scheme := range []string{"hpcc", "dcqcn"} {
		net, err := hpcc.Experiment{
			Scheme:   scheme,
			Topology: hpcc.Star{Hosts: fanIn + 1},
		}.Start()
		if err != nil {
			log.Fatal(err)
		}
		trace := net.TraceQueues(time.Microsecond, horizon)

		// All sixteen senders fire simultaneously at host 16.
		var flows []*hpcc.Flow
		for i := 0; i < fanIn; i++ {
			flows = append(flows, net.StartFlow(i, fanIn, flowSize))
		}
		net.Run(horizon)

		done := 0
		var worst time.Duration
		for _, f := range flows {
			if f.Done() {
				done++
				if f.FCT() > worst {
					worst = f.FCT()
				}
			}
		}
		var peak int64
		drainedAt := time.Duration(0)
		for _, p := range *trace {
			if p.TotalBytes > peak {
				peak = p.TotalBytes
			}
		}
		for _, p := range *trace {
			if p.TotalBytes > peak/10 {
				drainedAt = p.At
			}
		}

		fmt.Printf("== %s ==\n", net.Scheme())
		fmt.Printf("  flows done:      %d/%d (worst FCT %v)\n", done, fanIn, worst)
		fmt.Printf("  peak queue:      %.1f KB\n", float64(peak)/1024)
		fmt.Printf("  queue above 10%% of peak until: %v\n", drainedAt)
		fmt.Printf("  PFC pause frac:  %.3f%%\n", net.PFCPauseFraction()*100)
		fmt.Printf("  drops:           %d\n\n", net.Drops())
	}
}
