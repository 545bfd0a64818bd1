// Package campaign fans independent experiment jobs out across a
// bounded worker pool. Each job owns its own sim.Engine(s), so the only
// coordination the runner needs is deterministic seeding and ordered
// result collection: a campaign's rendered output is byte-identical
// whether it ran on one worker or many.
package campaign

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hpcc/internal/experiment"
	"hpcc/internal/sim"
)

// Job is one catalogued scenario bound to campaign parameters. Run is
// invoked once per seed replicate and must be reentrant: with Parallel
// and Seeds both above one, workers may execute it concurrently with
// other jobs and with its own replicates. It must confine itself to
// state it creates (its own engines), deriving everything from seed.
type Job struct {
	Name string
	Run  func(seed int64) []*experiment.Table
}

// Config bounds a campaign.
type Config struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// Seeds is the replicate count per job; <= 0 means 1. With more
	// than one, each job's tables are aggregated to mean ± 95% CI.
	Seeds int
	// BaseSeed anchors seed derivation (see DeriveSeed).
	BaseSeed int64
}

func (c *Config) normalize() {
	if c.Parallel <= 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	if c.Seeds <= 0 {
		c.Seeds = 1
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
}

// DeriveSeed returns the RNG seed for a job replicate. Replicate 0 runs
// at the base seed itself (so a single-seed campaign reproduces the
// scenario exactly as invoked standalone); further replicates hash the
// job name in, giving every (job, replicate) an independent stream that
// does not depend on which other jobs run or on worker scheduling.
func DeriveSeed(base int64, job string, replicate int) int64 {
	if replicate == 0 {
		return base
	}
	h := uint64(base)
	for _, c := range job {
		h = (h ^ uint64(c)) * 1099511628211 // FNV-1a step
	}
	h ^= uint64(replicate) << 1
	// splitmix64 finalizer to decorrelate nearby replicates.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	// Truncate to 31 bits: every RNG in the tree re-hashes its seed, so
	// small positive seeds lose nothing and stay easy to quote/replay.
	s := int64(h & 0x7fffffff)
	if s == 0 {
		s = 1
	}
	return s
}

// UnitResult is one (job, replicate) execution.
type UnitResult struct {
	Seed    int64
	Tables  []*experiment.Table
	Wall    time.Duration
	Events  uint64
	Engines int
	Err     error
}

// JobResult collects a job's replicates plus the cross-seed aggregate.
type JobResult struct {
	Name string
	// Units holds one entry per replicate, in replicate order.
	Units []UnitResult
	// Tables is the aggregated view: replicate 0's tables verbatim for
	// a single seed, mean ± 95% CI cells otherwise.
	Tables []*experiment.Table
	// Wall/Events/Engines sum over replicates.
	Wall    time.Duration
	Events  uint64
	Engines int
	// Err is the first replicate error, if any.
	Err error
}

// Result is a completed campaign.
type Result struct {
	Config Config
	// Jobs appear in submission order regardless of scheduling.
	Jobs []JobResult
	// Wall is the campaign's end-to-end wall-clock time.
	Wall time.Duration
}

// Events sums fired simulation events across the campaign.
func (r *Result) Events() uint64 {
	var total uint64
	for i := range r.Jobs {
		total += r.Jobs[i].Events
	}
	return total
}

// Err returns the first job error, if any.
func (r *Result) Err() error {
	for i := range r.Jobs {
		if err := r.Jobs[i].Err; err != nil {
			return fmt.Errorf("%s: %w", r.Jobs[i].Name, err)
		}
	}
	return nil
}

// Run executes jobs × seeds on the worker pool and returns results in
// submission order.
func Run(cfg Config, jobs []Job) *Result {
	cfg.normalize()
	start := time.Now() //hpcclint:allow determinism -- campaign wall-clock accounting; results depend only on per-job seeds

	type unit struct{ job, rep int }
	var units []unit
	for j := range jobs {
		for r := 0; r < cfg.Seeds; r++ {
			units = append(units, unit{j, r})
		}
	}
	slots := make([][]UnitResult, len(jobs))
	for j := range slots {
		slots[j] = make([]UnitResult, cfg.Seeds)
	}

	work := make(chan unit)
	var wg sync.WaitGroup
	workers := cfg.Parallel
	if workers > len(units) {
		workers = len(units)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//hpcclint:allow determinism -- worker pool runs whole jobs; each job is a self-contained deterministic simulation keyed by its seed
		go func() {
			defer wg.Done()
			for u := range work {
				slots[u.job][u.rep] = runUnit(jobs[u.job], DeriveSeed(cfg.BaseSeed, jobs[u.job].Name, u.rep))
			}
		}()
	}
	for _, u := range units {
		work <- u
	}
	close(work)
	wg.Wait()

	res := &Result{Config: cfg}
	for j := range jobs {
		jr := JobResult{Name: jobs[j].Name, Units: slots[j]}
		for _, u := range jr.Units {
			jr.Wall += u.Wall
			jr.Events += u.Events
			jr.Engines += u.Engines
			if u.Err != nil && jr.Err == nil {
				jr.Err = u.Err
			}
		}
		jr.Tables = aggregate(jr.Units)
		res.Jobs = append(res.Jobs, jr)
	}
	res.Wall = time.Since(start) //hpcclint:allow determinism -- campaign wall-time metering reported alongside results, not part of them
	return res
}

// runUnit executes one replicate with engine metering and panic
// containment (a scenario bug fails its job, not the campaign).
func runUnit(job Job, seed int64) (out UnitResult) {
	out.Seed = seed
	meter := sim.AttachMeter()
	start := time.Now() //hpcclint:allow determinism -- per-unit wall-clock metering reported alongside results, not part of them
	defer func() {
		out.Wall = time.Since(start) //hpcclint:allow determinism -- per-unit wall-clock metering reported alongside results, not part of them
		meter.Detach()
		out.Events = meter.Events()
		out.Engines = meter.Engines()
		if r := recover(); r != nil {
			out.Err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	out.Tables = job.Run(seed)
	return out
}
