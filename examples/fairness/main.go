// Fairness: the staggered join/leave benchmark of Figures 9g/9h — four
// long flows enter a 25 Gbps bottleneck one by one and leave one by
// one; HPCC converges to even shares at every population.
package main

import (
	"fmt"
	"log"
	"time"

	"hpcc"
)

func main() {
	const (
		nFlows = 4
		epoch  = 4 * time.Millisecond
	)
	net, err := hpcc.Experiment{
		Scheme:   "hpcc",
		Topology: hpcc.Star{Hosts: nFlows + 1, LinkRateGbps: 25},
	}.Start()
	if err != nil {
		log.Fatal(err)
	}

	// Per-flow goodput accounting in epoch-sized bins.
	nEpochs := 2*nFlows - 1
	bytes := make([][]int64, nFlows)
	flows := make([]*hpcc.Flow, nFlows)
	for i := 0; i < nFlows; i++ {
		i := i
		bytes[i] = make([]int64, nEpochs)
		flows[i] = net.StartFlowAt(time.Duration(i)*epoch, i, nFlows, 1<<40)
		flows[i].OnProgress(func(n int64) {
			if e := int(net.Now() / epoch); e < nEpochs {
				bytes[i][e] += n
			}
		})
	}
	// Flows leave in arrival order: flow i stops at epoch nFlows+i.
	for e := 0; e < nEpochs; e++ {
		net.Run(epoch)
		if leave := e + 1 - nFlows; leave >= 0 && leave < nFlows {
			flows[leave].Stop()
		}
	}

	fmt.Println("per-epoch goodput (Gbps); flows join one per epoch, then leave one per epoch")
	fmt.Println("epoch   flow1  flow2  flow3  flow4   Jain(active)")
	for e := 0; e < nEpochs; e++ {
		var rates [nFlows]float64
		var active []float64
		for i := 0; i < nFlows; i++ {
			rates[i] = float64(bytes[i][e]) * 8 / epoch.Seconds() / 1e9
			if e >= i && e < nFlows+i {
				active = append(active, rates[i])
			}
		}
		fmt.Printf("%5d   %5.1f  %5.1f  %5.1f  %5.1f   %.3f\n",
			e+1, rates[0], rates[1], rates[2], rates[3], jain(active))
	}
}

func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += float64(x * x)
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
