package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// unitSpec names one run of one workload.
type unitSpec struct {
	Workload string
	Seed     int64
	Smoke    bool
	Traced   bool // run under runtime/pprof and fold the profile by layer
}

// unitResult is one run's measurement. Every number is taken from
// outside the simulator: clocks, rusage and runtime counters read around
// the call, counts read from the returned result.
type unitResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Failure is empty when the run succeeded and every invariant held.
	Failure string `json:"failure,omitempty"`
	// Digest is the SHA-256 over every simulated statistic of the run
	// (for campaign-figs, over the rendered text). A simulator-only
	// speed-up must leave it unchanged.
	Digest string `json:"result_digest"`

	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	SetupS    float64 `json:"setup_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint32  `json:"gc_cycles"`
	HeapPeakMB float64 `json:"heap_peak_mb"`

	Load          bool    `json:"load"`
	DataPkts      uint64  `json:"data_pkts"`
	PortPkts      uint64  `json:"port_pkts"`
	Events        uint64  `json:"events"`
	Drops         uint64  `json:"drops"`
	Flows         int     `json:"flows"`
	Censored      int     `json:"censored"`
	QueueP99KB    float64 `json:"queue_p99_kb"`
	PauseFrac     float64 `json:"pfc_pause_frac"`
	RetainedBytes int64   `json:"retained_bytes"`
	Jobs          int     `json:"jobs"`
	ParallelEff   float64 `json:"parallel_eff"`

	// Shares is the traced run's CPU profile folded by layer (see
	// profile.go); nil on untraced runs.
	Shares map[string]float64 `json:"shares,omitempty"`
}

// work is the unit pkts_per_s and allocs_per_pkt are expressed in: data
// packets on the load workloads. campaign.Result exposes no packet
// count, so campaign-figs counts campaign jobs — fixed work, unlike
// events, which a scheduling optimisation legitimately reduces.
func (u *unitResult) work() float64 {
	if u.Load {
		return float64(u.DataPkts)
	}
	return float64(u.Jobs)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is this process image's resident high-water mark: VmHWM
// from /proc/self/status. Not ru_maxrss: across exec Linux folds the
// spawning process's high-water mark into the child's, so a child of a
// large harness would report the harness's peak as its own. Where there
// is no /proc (macOS reports ru_maxrss in bytes) ru_maxrss has to do.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20)
	}
	return float64(ru.Maxrss) / 1024
}

// measureSetup times the workload's set-up (fabric build + traffic
// install, or Match + job construction). One repetition loops the
// set-up until it has run for 20 ms, so the 35 ms paper fabric and the
// 10 µs job construction are both timed over a measurable interval; the
// result is the median per-call time of five repetitions.
func measureSetup(setup func(), smoke bool) float64 {
	reps, floor := 5, 20*time.Millisecond
	if smoke {
		reps, floor = 2, time.Millisecond
	}
	t0 := time.Now()
	setup()
	n := int(floor/(time.Since(t0)+1)) + 1
	times := make([]float64, reps)
	for r := range times {
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			setup()
		}
		times[r] = time.Since(t0).Seconds() / float64(n)
	}
	return median(times)
}

// runUnit sets the workload up (timed, discarded), runs it once and
// checks the result. It runs in the calling process; spawnUnit wraps it
// in a fresh child.
func runUnit(spec unitSpec) unitResult {
	u := unitResult{Workload: spec.Workload, Seed: spec.Seed}
	w, err := newWorkload(spec.Workload, spec.Seed, spec.Smoke)
	if err != nil {
		u.Failure = err.Error()
		return u
	}
	u.SetupS = measureSetup(w.setup, spec.Smoke)

	var prof bytes.Buffer
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if spec.Traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			u.Failure = "start profile: " + err.Error()
			return u
		}
	}
	cpu0, t0 := cpuSeconds(), time.Now()
	out, err := w.run()
	u.WallS = time.Since(t0).Seconds()
	u.CPUS = cpuSeconds() - cpu0
	if spec.Traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	u.PeakRSSMB = peakRSSMB()
	u.Mallocs = m1.Mallocs - m0.Mallocs
	u.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	u.GCCycles = m1.NumGC - m0.NumGC
	// HeapSys is address space ever reserved for the heap (released
	// spans included), so it is the heap's high-water mark.
	u.HeapPeakMB = float64(m1.HeapSys) / (1 << 20)

	u.Load = out.Load
	u.DataPkts, u.PortPkts, u.Events, u.Drops = out.DataPkts, out.PortPkts, out.Events, out.Drops
	u.Flows, u.Censored = out.Flows, out.Censored
	u.QueueP99KB = out.QueueP99 / 1024
	u.PauseFrac = out.PauseFrac
	u.RetainedBytes = out.RetainedBytes
	u.Jobs = out.Jobs
	if out.Workers > 0 && out.CampaignWall > 0 {
		u.ParallelEff = out.JobWall.Seconds() / (float64(out.Workers) * out.CampaignWall.Seconds())
	}
	u.Digest = digest(&out)
	if err != nil {
		u.Failure = "run: " + err.Error()
	} else {
		u.Failure = checkInvariants(&w, &out)
	}
	if spec.Traced && u.Failure == "" {
		shares, err := foldProfile(prof.Bytes())
		if err != nil {
			u.Failure = "profile: " + err.Error()
		}
		u.Shares = shares
	}
	return u
}

// checkInvariants returns the first broken invariant, or "".
func checkInvariants(w *workloadDef, out *simOut) string {
	if !out.Load {
		if len(out.Text) == 0 || out.Jobs == 0 {
			return "empty campaign output"
		}
		return ""
	}
	switch {
	case out.Flows == 0 || out.DataPkts == 0:
		return "no flows started"
	case w.WantFlows > 0 && out.Flows != w.WantFlows:
		return fmt.Sprintf("flows started %d, expected %d", out.Flows, w.WantFlows)
	case out.SlowP50 < 1:
		return fmt.Sprintf("slowdown p50 %.4g < 1", out.SlowP50)
	case w.Lossless && out.Censored > 0:
		return fmt.Sprintf("%d flows censored on a lossless workload", out.Censored)
	case w.Lossless && out.Drops > 0:
		return fmt.Sprintf("%d drops on a lossless workload", out.Drops)
	case !w.Lossless && out.Drops == 0:
		return "no drops on the lossy workload"
	}
	return ""
}

// digest hashes every simulated statistic of a run. Floats are written
// with their shortest exact representation, so any change in any bit of
// any statistic changes the digest.
func digest(out *simOut) string {
	h := sha256.New()
	if !out.Load {
		h.Write(out.Text)
		return hex.EncodeToString(h.Sum(nil))
	}
	var sb strings.Builder
	for _, v := range []uint64{out.DataPkts, out.PortPkts, out.Events, uint64(out.Flows), uint64(out.Censored), out.Drops, uint64(out.RetainedBytes)} {
		sb.WriteString(strconv.FormatUint(v, 10))
		sb.WriteByte(' ')
	}
	for _, v := range []float64{out.SlowP50, out.SlowP95, out.SlowP99, out.SlowP999, out.QueueP50, out.QueueP99, out.QueueMax, out.PauseFrac} {
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		sb.WriteByte(' ')
	}
	h.Write([]byte(sb.String()))
	return hex.EncodeToString(h.Sum(nil))
}

// spawnUnit runs the unit in a fresh child process of this binary, so
// every run starts from an empty heap and its peak RSS is its own. The
// child prints its unitResult as one JSON line.
func spawnUnit(spec unitSpec) unitResult {
	fail := func(format string, args ...any) unitResult {
		return unitResult{Workload: spec.Workload, Seed: spec.Seed, Failure: fmt.Sprintf(format, args...)}
	}
	exe, err := os.Executable()
	if err != nil {
		return fail("locate harness binary: %v", err)
	}
	trace := "0"
	if spec.Traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child",
		"-workload", spec.Workload,
		"-seed", strconv.FormatInt(spec.Seed, 10),
		"-smoke="+strconv.FormatBool(spec.Smoke),
		"-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return fail("child: %v", err)
	}
	var u unitResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout), &u); err != nil {
		return fail("child output: %v", err)
	}
	return u
}

// runner is how a unit gets executed: spawnUnit normally, runUnit for
// -smoke (the in-process path `go test` exercises).
type runner func(unitSpec) unitResult
