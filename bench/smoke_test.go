package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runBench(t *testing.T, want int, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != want {
		t.Fatalf("bench %v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", args, code, want, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TestSmoke runs the whole harness in-process at smoke scale and checks
// that the document carries every workload and every named metric, that
// the digests repeat, and that -compare accepts a document against
// itself and rejects a regression.
func TestSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	runBench(t, 0, "-smoke", "-out", out)
	doc, err := loadDocument(out)
	if err != nil {
		t.Fatal(err)
	}
	if doc.FailFrac != 0 || doc.Failed != 0 || doc.Attempted != 3*len(workloadNames) {
		t.Errorf("fail_frac %v, failed %d, attempted %d", doc.FailFrac, doc.Failed, doc.Attempted)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("document has %d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if len(w.Digest) != 64 || len(w.Failures) != 0 {
			t.Errorf("%s: digest %q, failures %v", w.Name, w.Digest, w.Failures)
		}
		for _, d := range endToEndDefs {
			s, ok := w.EndToEnd[d.Name]
			if !ok || s.N != doc.Reps || !finite(s.Median) || s.Median <= 0 || s.Min > s.Median || s.Median > s.Max {
				t.Errorf("%s: end-to-end %s = %+v", w.Name, d.Name, s)
			}
		}
		for _, d := range perLayerDefs {
			if v, ok := w.PerLayer[d.Name]; !ok || !finite(v) {
				t.Errorf("%s: per-layer %s = %v (present %v)", w.Name, d.Name, v, ok)
			}
		}
		if w.PerLayer["sim.events"] <= 0 {
			t.Errorf("%s: sim.events = %v", w.Name, w.PerLayer["sim.events"])
		}
	}
	for name, v := range doc.Micro {
		if !finite(v) || (strings.HasSuffix(name, "_ns") && v <= 0) {
			t.Errorf("micro-driver %s = %v", name, v)
		}
	}

	runBench(t, 0, "-compare", out, out)
	doc.Workloads[0].EndToEnd["wall_s"] = stat{Median: doc.Workloads[0].EndToEnd["wall_s"].Median * 1.5, N: 2, Unit: "s"}
	doc.Workloads[1].Digest = "changed"
	buf, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	slow := filepath.Join(t.TempDir(), "slow.json")
	if err := os.WriteFile(slow, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	text := runBench(t, 1, "-compare", out, slow)
	for _, want := range []string{"OUT OF BOUND", "result_digest CHANGED"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
}

// TestDriverLine checks the one-line result the PR driver reads, in
// both trace modes.
func TestDriverLine(t *testing.T) {
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEndDefs}, {"1", perLayerDefs}} {
		text := runBench(t, 0, "-smoke", "--workload", "stream-flows-4m", "--seed", "7", "--seconds", "1", "--trace", tc.trace)
		lines := strings.Split(strings.TrimSpace(text), "\n")
		var res driverResult
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line %q: %v", tc.trace, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(tc.defs) {
			t.Errorf("trace %s: %+v", tc.trace, res)
		}
		for _, d := range tc.defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || !finite(m.Value) {
				t.Errorf("trace %s: metric %s = %+v (present %v)", tc.trace, d.Name, m, ok)
			}
		}
	}
	runBench(t, 2, "--workload", "no-such-workload")
}

// TestContract checks BENCHMARK.json against the tables in metrics.go.
func TestContract(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var c struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, want %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, metrics.go %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEndDefs)
	check("per_layer", c.PerLayer, perLayerDefs)
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "hpcc/internal/fabric.(*Port).kick", "hpcc/internal/sim.(*Engine).Step"}, "fabric"},
		{[]string{"hpcc/internal/cc/hpcc.(*HPCC).OnAck", "hpcc/internal/host.(*Flow).handleAck"}, "cc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "hpcc/internal/host.(*Host).StartFlow"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime.gc"},
		{[]string{"runtime.gcAssistAlloc1", "runtime.mallocgc", "hpcc/internal/host.(*Host).StartFlow"}, "runtime.gc"},
		{[]string{"hpcc/internal/report.WriteText", "hpcc/bench.render"}, "experiment"},
		{[]string{"runtime.futex", "runtime.schedule"}, "unattributed"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}
