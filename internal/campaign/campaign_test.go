package campaign

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hpcc/internal/experiment"
	"hpcc/internal/sim"
)

// render prints a result the way the CLI's text sink does (job order,
// tables only) for byte-comparison.
func render(res *Result) string {
	var b bytes.Buffer
	for i := range res.Jobs {
		job := &res.Jobs[i]
		if job.Err != nil {
			fmt.Fprintf(&b, "== %s FAILED ==\n", job.Name)
			continue
		}
		for _, t := range job.Tables {
			t.Fprint(&b)
		}
	}
	return b.String()
}

func TestDeriveSeed(t *testing.T) {
	if got := DeriveSeed(7, "fig6", 0); got != 7 {
		t.Fatalf("replicate 0 seed = %d, want base 7", got)
	}
	// Replicates beyond 0 differ from the base and from each other,
	// and depend only on (base, job, replicate).
	seen := map[int64]string{7: "base"}
	for _, job := range []string{"fig6", "fig13"} {
		for rep := 1; rep < 4; rep++ {
			s := DeriveSeed(7, job, rep)
			if s <= 0 {
				t.Fatalf("seed %d for %s/%d not positive", s, job, rep)
			}
			if s != DeriveSeed(7, job, rep) {
				t.Fatal("derivation not deterministic")
			}
			key := fmt.Sprintf("%s/%d", job, rep)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both got %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}

// fakeJob builds a seed- and name-dependent table without any
// simulation, plus a knob to burn scheduling orderings.
func fakeJob(name string) Job {
	return Job{
		Name: name,
		Run: func(seed int64) []*experiment.Table {
			rng := sim.NewRNG(seed, name)
			t := &experiment.Table{Title: name, Cols: []string{"k", "v"}}
			for i := 0; i < 5; i++ {
				t.AddRow(fmt.Sprintf("r%d", i), fmt.Sprintf("%.3f", rng.Float64()))
			}
			t.AddNote("seed %d", seed)
			return []*experiment.Table{t}
		},
	}
}

// The tentpole guarantee: a campaign's rendered output is identical
// whatever the worker count, including multi-seed aggregation.
func TestParallelOutputMatchesSequential(t *testing.T) {
	jobs := []Job{fakeJob("alpha"), fakeJob("beta"), fakeJob("gamma"), fakeJob("delta"), fakeJob("epsilon")}
	for _, seeds := range []int{1, 3} {
		seq := Run(Config{Parallel: 1, Seeds: seeds, BaseSeed: 42}, jobs)
		par := Run(Config{Parallel: 8, Seeds: seeds, BaseSeed: 42}, jobs)
		if render(seq) != render(par) {
			t.Fatalf("seeds=%d: parallel output differs from sequential:\n--- seq ---\n%s--- par ---\n%s",
				seeds, render(seq), render(par))
		}
	}
}

// End-to-end over real registered scenarios: the micro figures are fast
// enough to run twice.
func TestParallelCampaignOverRealScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scenarios: skipped in -short")
	}
	scens, err := experiment.Match([]string{"fig6", "fig13", "theory"})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for _, s := range scens {
		run := s.Run
		name := s.Name
		jobs = append(jobs, Job{Name: name, Run: func(seed int64) []*experiment.Table {
			return run(experiment.Params{Seed: seed})
		}})
	}
	seq := Run(Config{Parallel: 1, BaseSeed: 1}, jobs)
	par := Run(Config{Parallel: 4, BaseSeed: 1}, jobs)
	if err := seq.Err(); err != nil {
		t.Fatal(err)
	}
	if render(seq) != render(par) {
		t.Fatal("parallel campaign output differs from sequential over real scenarios")
	}
	for i := range seq.Jobs {
		if seq.Jobs[i].Events == 0 && seq.Jobs[i].Name != "theory" {
			t.Fatalf("%s: no events metered", seq.Jobs[i].Name)
		}
		if seq.Jobs[i].Wall <= 0 {
			t.Fatalf("%s: no wall time recorded", seq.Jobs[i].Name)
		}
	}
	if seq.Events() != par.Events() {
		t.Fatalf("event counts differ: seq %d, par %d", seq.Events(), par.Events())
	}
}

func TestMultiSeedAggregation(t *testing.T) {
	res := Run(Config{Parallel: 2, Seeds: 4, BaseSeed: 9}, []Job{fakeJob("agg")})
	job := res.Jobs[0]
	if len(job.Units) != 4 {
		t.Fatalf("units = %d", len(job.Units))
	}
	if job.Units[0].Seed != 9 {
		t.Fatalf("replicate 0 seed = %d, want base", job.Units[0].Seed)
	}
	tab := job.Tables[0]
	// Value cells vary with seed → mean±hw; key cells are invariant.
	for _, row := range tab.Rows {
		if strings.Contains(row[0], "±") {
			t.Fatalf("label cell aggregated: %q", row[0])
		}
		if !strings.Contains(row[1], "±") {
			t.Fatalf("value cell not aggregated: %q", row[1])
		}
	}
	note := strings.Join(tab.Notes, "\n")
	if !strings.Contains(note, "mean±95% CI over 4 seeds") {
		t.Fatalf("missing aggregation note: %q", note)
	}
}

// Regression: a "NaN" cell parses as a float, but must be treated like
// non-numeric — one bad replicate used to poison the whole cell into
// "NaN±NaN".
func TestAggregationRejectsNaNCells(t *testing.T) {
	calls := 0
	job := Job{
		Name: "nan",
		Run: func(seed int64) []*experiment.Table {
			calls++ // safe: Parallel is 1 below
			t := &experiment.Table{Title: "nan", Cols: []string{"k", "v"}}
			v := fmt.Sprintf("%.3f", float64(calls))
			if calls == 2 {
				v = "NaN" // replicate 1 went bad
			}
			t.AddRow("r0", v)
			return []*experiment.Table{t}
		},
	}
	res := Run(Config{Parallel: 1, Seeds: 3, BaseSeed: 1}, []Job{job})
	cell := res.Jobs[0].Tables[0].Rows[0][1]
	if strings.Contains(cell, "NaN") {
		t.Fatalf("NaN replicate poisoned the aggregate cell: %q", cell)
	}
	if cell != "1.000" {
		t.Fatalf("cell = %q, want replicate 0's value 1.000", cell)
	}
}

func TestAggregationSkipsMismatchedShapes(t *testing.T) {
	calls := 0
	job := Job{
		Name: "ragged",
		Run: func(seed int64) []*experiment.Table {
			calls++ // safe: Parallel is 1 below
			t := &experiment.Table{Title: "ragged", Cols: []string{"v"}}
			for i := 0; i < calls; i++ {
				t.AddRow("x")
			}
			return []*experiment.Table{t}
		},
	}
	res := Run(Config{Parallel: 1, Seeds: 3, BaseSeed: 1}, []Job{job})
	note := strings.Join(res.Jobs[0].Tables[0].Notes, "\n")
	if !strings.Contains(note, "aggregation skipped") {
		t.Fatalf("expected skip note, got %q", note)
	}
}

func TestPanicBecomesJobError(t *testing.T) {
	boom := Job{Name: "boom", Run: func(int64) []*experiment.Table { panic("kaboom") }}
	ok := fakeJob("ok")
	res := Run(Config{Parallel: 2, BaseSeed: 1}, []Job{boom, ok})
	if res.Jobs[0].Err == nil || !strings.Contains(res.Jobs[0].Err.Error(), "kaboom") {
		t.Fatalf("panic not captured: %v", res.Jobs[0].Err)
	}
	if res.Jobs[1].Err != nil {
		t.Fatal("healthy job infected by sibling panic")
	}
	if err := res.Err(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("campaign error = %v", err)
	}
}
