package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

const (
	schemaID = "hpcc-bench/1"
	// The repo holds no numeric reference results (ROADMAP item 6(c)),
	// so the benchmark gives no error figure for the simulated numbers.
	validationNote = "model unvalidated against numeric references: result_digest pins self-consistency across commits, not accuracy"
)

// fingerprint identifies the machine and toolchain. Wall-clock numbers
// compare only between documents whose fingerprints match (the commit
// is carried along but is what is being compared, not matched).
type fingerprint struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

func (f fingerprint) sameMachine(o fingerprint) bool {
	f.Commit, o.Commit = "", ""
	return f == o
}

func readFingerprint() fingerprint {
	f := fingerprint{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	if file, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(file)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		file.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				f.Commit = s.Value
			}
		}
	}
	if f.Commit == "unknown" { // `go run` does not stamp VCS info
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			f.Commit = strings.TrimSpace(string(out))
		}
	}
	return f
}

// document is the full report `go run ./bench` writes.
type document struct {
	Schema      string           `json:"schema"`
	Validation  string           `json:"validation"`
	Fingerprint fingerprint      `json:"fingerprint"`
	Seed        int64            `json:"seed"`
	Reps        int              `json:"reps"`
	Smoke       bool             `json:"smoke"`
	Workloads   []workloadReport `json:"workloads"`
	// Micro holds the micro-driver metrics (workload-independent; also
	// repeated inside every workload's per_layer map).
	Micro     map[string]float64 `json:"micro"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailFrac  float64            `json:"fail_frac"`
}

type workloadReport struct {
	Name     string   `json:"name"`
	Digest   string   `json:"result_digest"`
	Failures []string `json:"failures,omitempty"`
	// EndToEnd comes from the untraced runs only.
	EndToEnd map[string]stat    `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
	// Estimates are micro-driver predictions op_ns × count / wall_s, to
	// be read beside the profiled cpu_share of the same layer.
	Estimates []estimate `json:"estimates"`
}

type estimate struct {
	Layer string  `json:"layer"`
	Basis string  `json:"basis"`
	Share float64 `json:"share"`
}

// estimates predicts each layer's share of a workload's wall time from
// its micro-driver and the run's counts.
func estimates(w *workloadDef, layer map[string]float64, wallS float64) []estimate {
	if w.Scheme == "" {
		return nil // campaign-figs reports no packet or flow counts
	}
	est := func(l, op, count string, scale float64) estimate {
		return estimate{Layer: l, Basis: op + " × " + count,
			Share: layer[op] * scale * layer[count] / (wallS * 1e9)}
	}
	fct := "stats.fct_add_exact_ns"
	if w.Streaming {
		fct = "stats.fct_add_stream_ns"
	}
	return []estimate{
		est("sim", "sim.hold_ns_d1k", "sim.events", 1),
		est("sim", "sim.hold_ns_d64k", "sim.events", 1),
		est("packet", "packet.pool_ns", "host.data_pkts", 2), // one data frame and one ACK per packet
		est("fabric", "fabric.hop_ns", "fabric.port_pkts", 1),
		est("host", "host.pkt_ns", "host.data_pkts", 1),
		est("host", "host.flow_ns", "host.flows_started", 1),
		est("cc", "cc."+metricName(w.Scheme)+".onack_ns", "host.data_pkts", 1),
		est("workload", "workload.cdf_sample_ns", "host.flows_started", 1),
		est("stats", fct, "host.flows_started", 1),
	}
}

// fullRun is `go run ./bench`: the micro-drivers, then every workload
// as reps untraced and tracedUnits traced units, each in a fresh child.
func fullRun(start runner, seed int64, reps int, smoke bool, outPath string, stdout, stderr io.Writer) int {
	doc := document{Schema: schemaID, Validation: validationNote, Fingerprint: readFingerprint(),
		Seed: seed, Reps: reps, Smoke: smoke}
	fmt.Fprintf(stdout, "bench: %d cores, GOMAXPROCS %d, %s, %s, commit %s\n", doc.Fingerprint.Cores,
		doc.Fingerprint.GOMAXPROCS, doc.Fingerprint.CPUModel, doc.Fingerprint.GoVersion, doc.Fingerprint.Commit)
	fmt.Fprintln(stdout, "bench:", validationNote)

	fmt.Fprintln(stdout, "bench: micro-drivers ...")
	micro, err := runMicro(microDefaults(smoke))
	if err != nil {
		fmt.Fprintln(stderr, "bench: micro-drivers:", err)
		return 1
	}
	doc.Micro = micro

	for _, name := range workloadNames {
		w, _ := newWorkload(name, seed, smoke)
		rep := workloadReport{Name: name}
		total := reps + tracedUnits(smoke)
		units := make([]unitResult, 0, total)
		for r := 0; r < total; r++ {
			traced := r >= reps
			u := start(unitSpec{Workload: name, Seed: seed, Smoke: smoke, Traced: traced})
			fmt.Fprintf(stdout, "bench: %s unit %d/%d (traced %v): wall %.3fs cpu %.3fs rss %.1fMB %s\n", name, r+1, total,
				traced, u.WallS, u.CPUS, u.PeakRSSMB, u.Failure)
			if u.Failure == "" && len(units) > 0 && u.Digest != units[0].Digest {
				u.Failure = "result_digest differs between runs of one workload"
			}
			if u.Failure != "" {
				rep.Failures = append(rep.Failures, u.Failure)
			}
			units = append(units, u)
		}
		doc.Attempted += len(units)
		doc.Failed += len(rep.Failures)
		rep.Digest = units[0].Digest
		rep.EndToEnd = endToEnd(units[:reps])
		wall := rep.EndToEnd["wall_s"].Median
		rep.PerLayer = perLayer(units[reps:], wall, micro)
		rep.Estimates = estimates(&w, rep.PerLayer, wall)
		doc.Workloads = append(doc.Workloads, rep)
	}
	doc.FailFrac = float64(doc.Failed) / float64(doc.Attempted)

	printDocument(stdout, &doc)
	if doc.Failed == 0 { // a failed run leaves NaN medians, which JSON cannot carry
		buf, err := json.MarshalIndent(&doc, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "bench: wrote", outPath)
	}
	if doc.Failed > 0 {
		fmt.Fprintf(stderr, "bench: %d of %d runs failed\n", doc.Failed, doc.Attempted)
		return 1
	}
	return 0
}

func printDocument(w io.Writer, doc *document) {
	fmt.Fprintf(w, "\n== micro-drivers (workload-independent) ==\n")
	for _, d := range perLayerDefs {
		if v, ok := doc.Micro[d.Name]; ok {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for i := range doc.Workloads {
		rep := &doc.Workloads[i]
		fmt.Fprintf(w, "\n== %s ==\nresult_digest %s\n", rep.Name, rep.Digest)
		for _, f := range rep.Failures {
			fmt.Fprintf(w, "FAILED: %s\n", f)
		}
		for _, d := range endToEndDefs {
			s := rep.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-30s %14.6g %-6s min %.6g max %.6g n %d  [bound %.0f%%, %s is better]\n",
				d.Name, s.Median, s.Unit, s.Min, s.Max, s.N, d.Bound*100, d.Better)
		}
		for _, d := range perLayerDefs {
			if _, micro := doc.Micro[d.Name]; !micro {
				fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, rep.PerLayer[d.Name], d.Unit)
			}
		}
		for _, e := range rep.Estimates {
			fmt.Fprintf(w, "  estimate %-9s %6.1f%% of wall_s (%s); profiled %s %.1f%%\n", e.Layer, e.Share*100,
				e.Basis, e.Layer+".cpu_share", rep.PerLayer[e.Layer+".cpu_share"]*100)
		}
	}
	fmt.Fprintf(w, "\nfail_frac %.4g (%d of %d runs)  [bound 0]\n", doc.FailFrac, doc.Failed, doc.Attempted)
}

// deterministicCounts must be identical between two runs of one commit
// (and between commits when a change claims to leave the simulation
// untouched).
var deterministicCounts = []string{"sim.events", "fabric.port_pkts", "host.data_pkts", "host.flows_started", "fabric.drops", "stats.retained_bytes"}

func loadDocument(path string) (*document, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schemaID {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schemaID)
	}
	return &doc, nil
}

// compareFiles gates document b against document a: per workload and
// end-to-end metric it prints both medians, the change and the bound,
// flags changed digests and counts, and returns non-zero when a metric
// is out of bound, a run failed, or the fingerprints differ (wall-clock
// numbers from different machines are not comparable, so only the
// allocation count and the deterministic counts are printed then).
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadDocument(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadDocument(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	bad := 0
	same := a.Fingerprint.sameMachine(b.Fingerprint)
	if !same {
		bad++
		fmt.Fprintf(stdout, "FINGERPRINT MISMATCH: wall-clock rows skipped\n  a: %+v\n  b: %+v\n", a.Fingerprint, b.Fingerprint)
	}
	if a.Failed+b.Failed > 0 {
		bad++
		fmt.Fprintf(stdout, "FAILED RUNS: a %d of %d, b %d of %d\n", a.Failed, a.Attempted, b.Failed, b.Attempted)
	}
	byName := map[string]*workloadReport{}
	for i := range a.Workloads {
		byName[a.Workloads[i].Name] = &a.Workloads[i]
	}
	for i := range b.Workloads {
		wb := &b.Workloads[i]
		wa, ok := byName[wb.Name]
		if !ok {
			fmt.Fprintf(stdout, "\n== %s == only in %s\n", wb.Name, pathB)
			continue
		}
		fmt.Fprintf(stdout, "\n== %s ==\n", wb.Name)
		if wa.Digest != wb.Digest {
			fmt.Fprintf(stdout, "  result_digest CHANGED: %.16s -> %.16s (simulated statistics differ)\n", wa.Digest, wb.Digest)
		}
		for _, c := range deterministicCounts {
			if va, vb := wa.PerLayer[c], wb.PerLayer[c]; va != vb {
				fmt.Fprintf(stdout, "  %-22s CHANGED: %.0f -> %.0f\n", c, va, vb)
			}
		}
		for _, d := range endToEndDefs {
			if !same && d.Name != "allocs_per_pkt" {
				continue
			}
			ma, mb := wa.EndToEnd[d.Name].Median, wb.EndToEnd[d.Name].Median
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			if worse > d.Bound || math.IsNaN(worse) {
				verdict = "OUT OF BOUND"
				bad++
			}
			fmt.Fprintf(stdout, "  %-16s %14.6g -> %14.6g %-6s %+7.2f%% worse (bound %.0f%%) %s\n",
				d.Name, ma, mb, d.Unit, worse*100, d.Bound*100, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "\ncompare: FAIL (%d problem(s))\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "\ncompare: ok")
	return 0
}
