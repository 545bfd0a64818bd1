// Package report renders campaign results in one of two forms: the
// aligned text tables the figures have always printed, or one JSON
// document for mechanical consumption (trajectories, plotting scripts).
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"hpcc/internal/campaign"
)

// WriteText prints every job's tables in campaign order — the same
// bytes regardless of how many workers ran the campaign. Failed jobs
// render as an error header so a broken scenario cannot silently
// disappear from the output.
func WriteText(w io.Writer, res *campaign.Result) error {
	for i := range res.Jobs {
		job := &res.Jobs[i]
		if job.Err != nil {
			if _, err := fmt.Fprintf(w, "== %s FAILED ==\n%v\n\n", job.Name, job.Err); err != nil {
				return err
			}
			continue
		}
		for _, t := range job.Tables {
			t.Fprint(w)
		}
	}
	return nil
}

// JSON document shape. Rows keep the rendered cell strings, so
// trajectories can be extracted mechanically without a second schema
// per figure: single-seed cells parse directly with
// strconv.ParseFloat; multi-seed campaigns render varying cells as
// "mean±hw" — split on '±' before parsing.
type (
	// Doc is the top-level JSON document.
	Doc struct {
		Campaign CampaignMeta `json:"campaign"`
		Jobs     []JobDoc     `json:"jobs"`
	}
	// CampaignMeta echoes the campaign configuration and totals.
	CampaignMeta struct {
		BaseSeed int64             `json:"baseSeed"`
		Seeds    int               `json:"seeds"`
		Parallel int               `json:"parallel"`
		WallMS   float64           `json:"wallMs"`
		Events   uint64            `json:"events"`
		Labels   map[string]string `json:"labels,omitempty"`
	}
	// JobDoc is one scenario's outcome.
	JobDoc struct {
		Name    string     `json:"name"`
		Seeds   []int64    `json:"seeds"`
		WallMS  float64    `json:"wallMs"`
		Events  uint64     `json:"events"`
		Engines int        `json:"engines"`
		Error   string     `json:"error,omitempty"`
		Tables  []TableDoc `json:"tables,omitempty"`
	}
	// TableDoc mirrors experiment.Table.
	TableDoc struct {
		Title string     `json:"title"`
		Cols  []string   `json:"cols"`
		Rows  [][]string `json:"rows"`
		Notes []string   `json:"notes,omitempty"`
	}
)

// WriteJSON emits the campaign as one indented JSON document. labels
// carries free-form run metadata (e.g. the -scale name).
func WriteJSON(w io.Writer, res *campaign.Result, labels map[string]string) error {
	doc := Doc{
		Campaign: CampaignMeta{
			BaseSeed: res.Config.BaseSeed,
			Seeds:    res.Config.Seeds,
			Parallel: res.Config.Parallel,
			WallMS:   float64(res.Wall.Microseconds()) / 1000,
			Events:   res.Events(),
			Labels:   labels,
		},
	}
	for i := range res.Jobs {
		job := &res.Jobs[i]
		jd := JobDoc{
			Name:    job.Name,
			WallMS:  float64(job.Wall.Microseconds()) / 1000,
			Events:  job.Events,
			Engines: job.Engines,
		}
		for _, u := range job.Units {
			jd.Seeds = append(jd.Seeds, u.Seed)
		}
		if job.Err != nil {
			jd.Error = job.Err.Error()
		}
		for _, t := range job.Tables {
			jd.Tables = append(jd.Tables, TableDoc{Title: t.Title, Cols: t.Cols, Rows: t.Rows, Notes: t.Notes})
		}
		doc.Jobs = append(doc.Jobs, jd)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteTiming prints the per-job wall-clock/event-count summary. It
// belongs on stderr: timings vary run to run, while the table output on
// stdout must stay byte-identical across worker counts.
func WriteTiming(w io.Writer, res *campaign.Result) error {
	if _, err := fmt.Fprintf(w, "# %-18s %6s %12s %14s %8s\n", "job", "seeds", "wall", "events", "engines"); err != nil {
		return err
	}
	for i := range res.Jobs {
		job := &res.Jobs[i]
		status := ""
		if job.Err != nil {
			status = "  FAILED"
		}
		if _, err := fmt.Fprintf(w, "# %-18s %6d %12s %14d %8d%s\n",
			job.Name, len(job.Units), job.Wall.Round(time.Millisecond), job.Events, job.Engines, status); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# campaign: %d jobs, %d events, wall %s (parallel %d, seeds %d)\n",
		len(res.Jobs), res.Events(), res.Wall.Round(time.Millisecond), res.Config.Parallel, res.Config.Seeds)
	return err
}
