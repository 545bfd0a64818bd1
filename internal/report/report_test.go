package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"hpcc/internal/campaign"
	"hpcc/internal/experiment"
)

func sampleResult() *campaign.Result {
	tab := &experiment.Table{
		Title: "Sample panel",
		Cols:  []string{"size", "p95"},
		Rows:  [][]string{{"1K", "1.50"}, {"10K", "2.75"}},
		Notes: []string{"a note"},
	}
	return &campaign.Result{
		Config: campaign.Config{Parallel: 4, Seeds: 1, BaseSeed: 1},
		Jobs: []campaign.JobResult{
			{
				Name:   "sample",
				Units:  []campaign.UnitResult{{Seed: 1, Tables: []*experiment.Table{tab}, Wall: time.Millisecond, Events: 42, Engines: 1}},
				Tables: []*experiment.Table{tab},
				Wall:   time.Millisecond,
				Events: 42, Engines: 1,
			},
			{
				Name:  "broken",
				Units: []campaign.UnitResult{{Seed: 1, Err: errors.New("exploded")}},
				Err:   errors.New("exploded"),
			},
		},
		Wall: 2 * time.Millisecond,
	}
}

func TestWriteText(t *testing.T) {
	var b bytes.Buffer
	if err := WriteText(&b, sampleResult()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== Sample panel ==", "1K", "2.75", "note: a note", "== broken FAILED ==", "exploded"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var b bytes.Buffer
	if err := WriteJSON(&b, sampleResult(), map[string]string{"scale": "default"}); err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Campaign.Events != 42 || doc.Campaign.Labels["scale"] != "default" {
		t.Fatalf("campaign meta = %+v", doc.Campaign)
	}
	if len(doc.Jobs) != 2 || doc.Jobs[0].Name != "sample" {
		t.Fatalf("jobs = %+v", doc.Jobs)
	}
	if doc.Jobs[0].Tables[0].Rows[1][1] != "2.75" {
		t.Fatal("table rows lost")
	}
	if doc.Jobs[1].Error == "" {
		t.Fatal("job error lost")
	}
}

func TestWriteTiming(t *testing.T) {
	var b bytes.Buffer
	if err := WriteTiming(&b, sampleResult()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"sample", "42", "FAILED", "campaign: 2 jobs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timing output missing %q:\n%s", want, out)
		}
	}
}
