package hpcc_test

import (
	"fmt"
	"log"
	"time"

	"hpcc"
)

// Build a small HPCC fabric, send one flow and inspect its completion
// time: the minimal end-to-end use of the library.
func ExampleExperiment_Start() {
	// Four hosts around one 100 Gbps switch, running HPCC with INT.
	net, err := hpcc.Experiment{
		Scheme:   "hpcc",
		Topology: hpcc.Star{Hosts: 4},
	}.Start()
	if err != nil {
		log.Fatal(err)
	}

	// Ship 1 MB from host 0 to host 3 and run until every event has
	// drained.
	flow := net.StartFlow(0, 3, 1<<20)
	net.RunUntilIdle()

	fmt.Printf("scheme:     %s\n", net.Scheme())
	fmt.Printf("base RTT:   %v\n", net.BaseRTT())
	fmt.Printf("completed:  %v\n", flow.Done())
	fmt.Printf("FCT:        %v\n", flow.FCT())
	fmt.Printf("slowdown:   %v × ideal\n", flow.Slowdown())
	fmt.Printf("drops:      %d\n", net.Drops())
	// Output:
	// scheme:     HPCC
	// base RTT:   4.5µs
	// completed:  true
	// FCT:        101.121µs
	// slowdown:   1.039466959836187 × ideal
	// drops:      0
}

// The algorithm runs standalone too, fed with INT feedback you supply:
// one congested round trip halves the window, HPCC's one-step
// multiplicative adjustment.
func ExampleNewSender() {
	var clock time.Duration
	sender := hpcc.NewSender(hpcc.SenderConfig{
		LineRateBps: 100e9,
		BaseRTT:     10 * time.Microsecond,
	}, func() time.Duration { return clock })

	hop := func(ts time.Duration, tx uint64, qlen int64) []hpcc.INTHop {
		return []hpcc.INTHop{{BandwidthBps: 100e9, Timestamp: ts, TxBytes: tx, QueueBytes: qlen}}
	}
	fmt.Printf("W0 = %.0f bytes\n", sender.WindowBytes())
	sender.OnAck(hpcc.Ack{AckSeq: 1000, SndNxt: 500_000, Hops: hop(0, 0, 125_000), PathID: 7})
	clock = 10 * time.Microsecond
	sender.OnAck(hpcc.Ack{AckSeq: 2000, SndNxt: 501_000, Hops: hop(clock, 125_000, 125_000), PathID: 7})
	fmt.Printf("after one congested RTT (U = %.2f): W = %.0f bytes\n",
		sender.Utilization(), sender.WindowBytes())
	// Output:
	// W0 = 125000 bytes
	// after one congested RTT (U = 2.00): W = 59438 bytes
}

// Compose a fabric no preset covers — two racks with dual spine
// uplinks and a storage rack hanging off one spine — then drive it with
// RPC request-response traffic over the RDMA READ path plus a Poisson
// background mix, observing completions and queue depth as the
// simulation runs.
func ExampleCustom() {
	// 2 compute racks × 4 hosts at 100 Gbps under their ToRs, each ToR
	// dual-homed to two 400 Gbps spines, and a 2-host storage rack under
	// spine 0 only.
	var c hpcc.Custom
	spine0, spine1 := c.AddSwitch(), c.AddSwitch()
	for r := 0; r < 2; r++ {
		tor := c.AddSwitch()
		c.Link(tor, spine0, 400, time.Microsecond)
		c.Link(tor, spine1, 400, time.Microsecond)
		for i := 0; i < 4; i++ {
			c.Link(c.AddHost(), tor, 100, time.Microsecond)
		}
	}
	storTor := c.AddSwitch()
	c.Link(storTor, spine0, 400, time.Microsecond)
	for i := 0; i < 2; i++ {
		c.Link(c.AddHost(), storTor, 100, time.Microsecond)
	}

	var reads, flows int
	var worstRead time.Duration
	var peakQueue int64
	obs := []hpcc.Observer{
		hpcc.FlowObserver{OnComplete: func(r hpcc.FlowRecord) {
			flows++
			if r.Read {
				reads++
				worstRead = max(worstRead, r.FCT)
			}
		}},
		hpcc.QueueObserver{OnSample: func(s hpcc.QueueSample) {
			peakQueue = max(peakQueue, s.TotalBytes)
		}},
	}

	res, err := hpcc.Experiment{
		Scheme:   "hpcc",
		Topology: &c,
		Traffic: []hpcc.Traffic{
			hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: 0.2, MaxFlows: 300},
			hpcc.RPC{ResponseBytes: 128 << 10, Load: 0.1, MaxRequests: 100},
		},
		Horizon:   4 * time.Millisecond,
		Drain:     20 * time.Millisecond,
		Observers: obs,
	}.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("hosts:      %d\n", c.NumHosts())
	fmt.Printf("completed:  %d transfers (%d censored, %d observed), %d via RDMA READ\n",
		res.Flows, res.Censored, flows, reads)
	fmt.Printf("slowdown:   p50 %.2f  p95 %.2f  p99 %.2f\n",
		res.SlowdownP50, res.SlowdownP95, res.SlowdownP99)
	fmt.Printf("worst READ: %v\n", worstRead)
	fmt.Printf("peak queue: %.1f KB (streamed sample)\n", float64(peakQueue)/1024)
	fmt.Printf("drops:      %d, PFC pause %.3f%%\n", res.Drops, res.PFCPauseFraction*100)
	// Output:
	// hosts:      10
	// completed:  206 transfers (0 censored, 206 observed), 100 via RDMA READ
	// slowdown:   p50 1.07  p95 2.21  p99 2.80
	// worst READ: 59.581µs
	// peak queue: 244.3 KB (streamed sample)
	// drops:      0, PFC pause 0.000%
}

// Watch an experiment's statistics while it runs: a StatsObserver
// flushes one window every 1 ms of virtual time — queue-depth
// percentiles over the window, plus cumulative flow counts and slowdown
// percentiles — from constant-memory sketches, so a flush costs the
// same after a thousand flows or a million. The run itself uses
// SketchStats, the streaming statistics mode long campaigns run in: its
// percentiles are within 1 % of exact and its retained stat memory is
// O(sketch buckets), not O(flows). Attaching the observer changes no
// field of the result.
func ExampleStatsObserver() {
	fmt.Println("window-end   q-p50(KB)  q-p99(KB)  q-max(KB)   flows  sd-p50  sd-p99")
	res, err := hpcc.Experiment{
		Scheme:      "hpcc",
		Topology:    hpcc.Pod{},
		Traffic:     []hpcc.Traffic{hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: 0.5}},
		Horizon:     10 * time.Millisecond,
		Drain:       25 * time.Millisecond,
		MaxFlows:    600,
		SketchStats: true,
		Observers: []hpcc.Observer{
			hpcc.StatsObserver{OnFlush: func(f hpcc.StatsFlush) {
				fmt.Printf("%10v  %9.1f  %9.1f  %9.1f  %6d  %6.2f  %6.2f\n",
					f.End, f.QueueP50KB, f.QueueP99KB, f.QueueMaxKB,
					f.Flows, f.SlowdownP50, f.SlowdownP99)
			}},
		},
	}.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("flows      %d completed, %d censored\n", res.Flows, res.Censored)
	fmt.Printf("slowdown   p50 %.2f  p95 %.2f  p99 %.2f  p99.9 %.2f\n",
		res.SlowdownP50, res.SlowdownP95, res.SlowdownP99, res.SlowdownP999)
	fmt.Printf("queue      p50 %.1f KB  p99 %.1f KB  max %.1f KB\n",
		res.QueueP50KB, res.QueueP99KB, res.QueueMaxKB)
	fmt.Printf("stat mem   %d B retained\n", res.RetainedStatBytes)
	// Output:
	// window-end   q-p50(KB)  q-p99(KB)  q-max(KB)   flows  sd-p50  sd-p99
	//        1ms        0.0        0.0       25.9      30    1.00    1.77
	//        2ms        0.0        0.0       31.3      93    1.00    2.34
	//        3ms        0.0        0.0       32.4     136    1.00    2.29
	//        4ms        0.0        0.0       32.4     197    1.00    2.53
	//        5ms        0.0        1.1       34.6     238    1.00    2.53
	//        6ms        0.0        1.1       28.1     288    1.00    2.59
	//        7ms        0.0        1.1       27.5     332    1.00    2.59
	//        8ms        0.0        2.2       30.2     386    1.00    2.75
	//        9ms        0.0        2.2       32.4     435    1.00    2.97
	//       10ms        0.0        2.2       32.4     478    1.00    2.97
	// flows      514 completed, 0 censored
	// slowdown   p50 1.03  p95 2.29  p99 3.22  p99.9 4.01
	// queue      p50 0.0 KB  p99 1.1 KB  max 34.6 KB
	// stat mem   3856 B retained
}
