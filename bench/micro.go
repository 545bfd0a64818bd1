package main

import (
	"runtime"
	"strings"
	"time"
)

// Micro-drivers time calls into one layer's exported functions, from
// outside: a kernel performs n operations, the driver sizes n so one
// loop lasts at least microLoop, runs microLoops loops and reports the
// median ns/op and the mean allocs/op.

type microCfg struct {
	loops   int
	minLoop time.Duration
	flows   int   // host.flow_* closed-loop flow count
	bytes   int64 // long-flow size for host.pkt_ns and fabric.hop_ns
	jobs    int   // campaign.dispatch_us job count
}

func microDefaults(smoke bool) microCfg {
	if smoke {
		return microCfg{loops: 1, minLoop: 2 * time.Millisecond, flows: 2000, bytes: 1 << 20, jobs: 100}
	}
	return microCfg{loops: 5, minLoop: 300 * time.Millisecond, flows: 100_000, bytes: 32 << 20, jobs: 1000}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// timeKernel returns the kernel's median ns/op and mean allocs/op.
func timeKernel(cfg microCfg, kernel func(n int)) (nsPerOp, allocsPerOp float64) {
	n := 64
	for {
		t0 := time.Now()
		kernel(n)
		if d := time.Since(t0); d >= cfg.minLoop || n >= 1<<30 {
			break
		} else if d < cfg.minLoop/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	ns := make([]float64, cfg.loops)
	m0 := mallocs()
	for i := range ns {
		t0 := time.Now()
		kernel(n)
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(ns), float64(mallocs()-m0) / float64(n*cfg.loops)
}

// medianOf runs f loops times and returns the median of its result.
func medianOf(loops int, f func() float64) float64 {
	v := make([]float64, loops)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

// metricName turns a scheme's CLI spelling into a metric-name segment
// (names may not hold '+').
func metricName(scheme string) string { return strings.ReplaceAll(scheme, "+", "-") }

// runMicro runs every micro-driver and returns metric name → value.
func runMicro(cfg microCfg) (map[string]float64, error) {
	m := map[string]float64{}
	ns := func(name string, kernel func(n int)) {
		m[name], _ = timeKernel(cfg, kernel)
	}

	ns("sim.hold_ns_d1k", holdKernel(1000))
	ns("sim.hold_ns_d64k", holdKernel(64000))
	ns("sim.cancel_ns", cancelKernel())
	ns("packet.pool_ns", poolKernel())
	ns("workload.cdf_sample_ns", cdfKernel())
	ns("stats.sketch_add_ns", sketchKernel())
	ns("stats.fct_add_exact_ns", fctKernel(false))
	ns("stats.fct_add_stream_ns", fctKernel(true))
	ns("cc.sender.onack_ns", senderKernel())
	for _, s := range ccSchemes {
		base := "cc." + metricName(s)
		m[base+".onack_ns"], m[base+".onack_allocs"] = timeKernel(cfg, ccKernel(s))
	}

	// One paper-fabric build is ≈35 ms, so loops of one build each.
	build := buildKernel()
	m0 := mallocs()
	m["topology.build_paper_ms"] = medianOf(cfg.loops, func() float64 {
		t0 := time.Now()
		build(1)
		return time.Since(t0).Seconds() * 1e3
	})
	m["topology.build_allocs"] = float64(mallocs()-m0) / float64(cfg.loops)

	// Whole-simulation drivers: the op is a flow or a packet.
	var flowAllocs float64
	m["host.flow_ns"] = medianOf(cfg.loops, func() float64 {
		r := starRun(cfg.flows, 1000)
		flowAllocs = float64(r.Mallocs) / float64(r.Flows)
		return float64(r.Wall.Nanoseconds()) / float64(r.Flows)
	})
	m["host.flow_allocs"] = flowAllocs
	m["host.pkt_ns"] = medianOf(cfg.loops, func() float64 {
		star := starRun(1, cfg.bytes)
		return float64(star.Wall.Nanoseconds()) / float64(star.DataPkts)
	})
	// The same flow over five switches instead of one: the extra wall
	// time over the extra port-packets is the cost of one switch hop.
	m["fabric.hop_ns"] = medianOf(cfg.loops, func() float64 {
		chain := chainRun(1, cfg.bytes)
		s := starRun(1, cfg.bytes)
		return float64((chain.Wall - s.Wall).Nanoseconds()) / float64(chain.PortPkts-s.PortPkts)
	})

	m["campaign.dispatch_us"] = medianOf(cfg.loops, func() float64 {
		return float64(dispatchRun(cfg.jobs).Microseconds()) / float64(cfg.jobs)
	})
	render, err := renderKernel()
	if err != nil {
		return nil, err
	}
	renderNs, _ := timeKernel(cfg, render)
	m["report.render_ms"] = renderNs / 1e6
	return m, nil
}
