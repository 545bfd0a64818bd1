// Command hpccsim runs a single cluster-load scenario — scheme ×
// topology × workload × load — and prints the FCT-slowdown, queue and
// PFC summary.
//
// Examples:
//
//	hpccsim -scheme hpcc -topo pod -workload websearch -load 0.5
//	hpccsim -scheme dcqcn -topo fattree -workload fbhadoop -incast
//	hpccsim -json -scheme hpcc -load 0.5 > result.json
//	hpccsim -topo fattree -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -cpuprofile profiles exactly the simulation, and -memprofile writes a
// heap profile taken after a forced GC once it ends, so it shows what
// the run retains rather than its transient garbage; read either with
// go tool pprof.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hpcc"
)

// options holds the scenario flags.
type options struct {
	scheme, topo, workload            string
	paperScale, incast, lossy, sketch bool
	load                              float64
	flows                             int
	duration, drain                   time.Duration
	seed                              int64
	cpuProfile, memProfile            string
}

// registerFlags registers the scenario flags on fs and returns the
// options that will receive the parsed values.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.scheme, "scheme", "hpcc", "congestion control: "+strings.Join(hpcc.SchemeNames(), ", "))
	fs.StringVar(&o.topo, "topo", "pod", "topology: pod, fattree")
	fs.BoolVar(&o.paperScale, "paper-scale", false, "full 320-host FatTree (slow; needs -topo fattree)")
	fs.StringVar(&o.workload, "workload", "websearch", "flow sizes: websearch, fbhadoop")
	fs.Float64Var(&o.load, "load", 0.3, "average link load")
	fs.IntVar(&o.flows, "flows", 1000, "max generated flows")
	fs.DurationVar(&o.duration, "duration", 20*time.Millisecond, "arrival window (virtual time)")
	fs.DurationVar(&o.drain, "drain", 30*time.Millisecond, "extra drain time")
	fs.BoolVar(&o.incast, "incast", false, "add periodic fan-in events (2% of capacity)")
	fs.BoolVar(&o.lossy, "lossy", false, "disable PFC (go-back-N recovery)")
	fs.BoolVar(&o.sketch, "sketch", false, "streaming statistics: constant-memory DDSketch quantiles instead of exact per-flow retention")
	fs.Int64Var(&o.seed, "seed", 1, "RNG seed")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile (post-GC, retained memory) to this file on exit")
	return o
}

// run executes exp under the requested profiles: the CPU profile covers
// exactly the simulation, and the heap profile is written once it ends,
// after a GC has flushed its transient garbage.
func (o *options) run(exp hpcc.Experiment) (*hpcc.SimResult, error) {
	var cpu *os.File
	if o.cpuProfile != "" {
		var err error
		if cpu, err = os.Create(o.cpuProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	res, err := exp.Run()
	if cpu != nil {
		pprof.StopCPUProfile()
		if cerr := cpu.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil && o.memProfile != "" {
		var mem *os.File
		if mem, err = os.Create(o.memProfile); err == nil {
			runtime.GC()
			err = pprof.Lookup("heap").WriteTo(mem, 0)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
		}
	}
	return res, err
}

// experiment maps the flags onto the Experiment they describe: Poisson
// traffic from the workload's CDF, plus with -incast 500 KB fan-ins at
// 2% of capacity, 16-to-1 on the Pod and 60-to-1 on the FatTree (§5.3).
// The scheme and the numeric flags are left to Experiment to check.
func (o *options) experiment() (hpcc.Experiment, error) {
	var topo hpcc.Topology
	fanIn := 60
	switch o.topo {
	case "pod":
		if o.paperScale {
			return hpcc.Experiment{}, fmt.Errorf("hpcc: PaperScale is the 320-host FatTree; it needs Topology \"fattree\", got %q", o.topo)
		}
		topo, fanIn = hpcc.Pod{}, 16
	case "fattree":
		topo = hpcc.FatTree{}
		if o.paperScale {
			topo = hpcc.PaperFatTree()
		}
	default:
		return hpcc.Experiment{}, fmt.Errorf("hpcc: unknown topology %q", o.topo)
	}
	var cdf hpcc.CDF
	switch o.workload {
	case "websearch":
		cdf = hpcc.WebSearchCDF()
	case "fbhadoop":
		cdf = hpcc.FBHadoopCDF()
	default:
		return hpcc.Experiment{}, fmt.Errorf("hpcc: unknown workload %q (want websearch or fbhadoop)", o.workload)
	}
	traffic := []hpcc.Traffic{hpcc.Poisson{CDF: cdf, Load: o.load}}
	if o.incast {
		traffic = append(traffic, hpcc.Incast{FanIn: fanIn, FlowSizeBytes: 500_000, LoadFraction: 0.02})
	}
	lossless := !o.lossy
	return hpcc.Experiment{
		Scheme:      o.scheme,
		Topology:    topo,
		Traffic:     traffic,
		Horizon:     o.duration,
		Drain:       o.drain,
		MaxFlows:    o.flows,
		Lossless:    &lossless,
		SketchStats: o.sketch,
		Seed:        o.seed,
	}, nil
}

func main() {
	opts := registerFlags(flag.CommandLine)
	asJSON := flag.Bool("json", false, "emit the result as one JSON document")
	flag.Parse()
	exp, err := opts.experiment()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpccsim:", err)
		os.Exit(1)
	}
	res, err := opts.run(exp)
	if err != nil {
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
	if opts.sketch {
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
