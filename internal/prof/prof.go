// Package prof is hpccsim's profiling harness: a small wrapper around
// runtime/pprof exposed as -cpuprofile / -memprofile flags, so any run
// of the CLI can be explained with `go tool pprof`. The bench ledger
// (bench/) traces its own runs and does not use it.
//
// Usage in a main:
//
//	p := prof.RegisterFlags(flag.CommandLine)
//	flag.Parse()
//	stop, err := p.Start()
//	// ... simulation work ...
//	err = stop() // flush profiles before reporting/exit paths
//
// Start is a no-op returning a no-op stop when no profile flag is set,
// so the flags cost nothing when unused. The heap profile is written at
// stop time after a forced GC, so it reflects retained memory rather
// than transient garbage — the number the streaming-statistics work
// cares about.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles holds the profile destinations registered on a FlagSet.
type Profiles struct {
	cpu string
	mem string
}

// RegisterFlags registers the profiling flags on fs and returns the
// Profiles that will receive the parsed values. Call before fs.Parse.
func RegisterFlags(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile (post-GC, retained memory) to this file on exit")
	return p
}

// Start begins CPU profiling as requested. The returned stop flushes
// every requested profile; call it after the measured work and before
// reporting or exiting. Stop is idempotent. On error nothing is left
// running and stop is still safe to call.
func (p *Profiles) Start() (stop func() error, err error) {
	noop := func() error { return nil }
	if p.cpu == "" && p.mem == "" {
		return noop, nil
	}
	var cpuF *os.File
	if p.cpu != "" {
		cpuF, err = os.Create(p.cpu)
		if err != nil {
			return noop, fmt.Errorf("prof: %v", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return noop, fmt.Errorf("prof: start cpu profile: %v", err)
		}
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		var firstErr error
		if cpuF != nil {
			pprof.StopCPUProfile()
			firstErr = cpuF.Close()
		}
		if p.mem != "" {
			// Flush transient garbage so the heap profile shows what the
			// run actually retains.
			runtime.GC()
			if err := writeHeap(p.mem); firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return fmt.Errorf("prof: %v", firstErr)
		}
		return nil
	}, nil
}

// writeHeap dumps the heap profile to path.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
