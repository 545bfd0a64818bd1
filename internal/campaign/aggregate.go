package campaign

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hpcc/internal/experiment"
)

// aggregate merges a job's replicates into one table set. With a single
// replicate (or any failed one) the first replicate's tables pass
// through verbatim. Otherwise every cell that parses as a number in all
// replicates becomes "mean±hw" where hw is the 95% confidence-interval
// half-width (normal approximation); non-numeric cells and notes come
// from replicate 0. Replicates whose table shapes disagree (tables,
// columns or row counts) cannot be merged cell-wise and also fall back
// to replicate 0, flagged by a note.
func aggregate(units []UnitResult) []*experiment.Table {
	if len(units) == 0 {
		return nil
	}
	first := units[0].Tables
	if len(units) == 1 {
		return first
	}
	for _, u := range units {
		if u.Err != nil {
			return first
		}
	}
	var seeds []string
	for _, u := range units {
		seeds = append(seeds, strconv.FormatInt(u.Seed, 10))
	}
	if !sameShape(units) {
		out := cloneTables(first)
		for _, t := range out {
			t.AddNote("multi-seed aggregation skipped (replicate shapes differ); showing seed %d of seeds %s",
				units[0].Seed, strings.Join(seeds, ","))
		}
		return out
	}
	out := cloneTables(first)
	for ti, t := range out {
		for ri, row := range t.Rows {
			for ci := range row {
				vals := make([]float64, len(units))
				numeric, varies := true, false
				for ui, u := range units {
					cell := u.Tables[ti].Rows[ri][ci]
					if cell != row[ci] {
						varies = true
					}
					v, err := strconv.ParseFloat(cell, 64)
					// NaN parses fine but would poison the mean±CI into
					// NaN±NaN; treat it like non-numeric so the cell
					// falls back to replicate 0.
					if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
						numeric = false
						break
					}
					vals[ui] = v
				}
				// Keep seed-invariant cells (labels, time axes) and
				// non-numeric ones as replicate 0 rendered them.
				if !numeric || !varies {
					continue
				}
				row[ci] = meanCI(vals, fracDigits(row[ci]))
			}
		}
		t.AddNote("numeric cells: mean±95%% CI over %d seeds (%s); notes reflect seed %d",
			len(units), strings.Join(seeds, ","), units[0].Seed)
	}
	return out
}

func sameShape(units []UnitResult) bool {
	first := units[0].Tables
	for _, u := range units[1:] {
		if len(u.Tables) != len(first) {
			return false
		}
		for ti, t := range u.Tables {
			f := first[ti]
			if t.Title != f.Title || len(t.Cols) != len(f.Cols) || len(t.Rows) != len(f.Rows) {
				return false
			}
			for ri := range t.Rows {
				if len(t.Rows[ri]) != len(f.Rows[ri]) {
					return false
				}
			}
		}
	}
	return true
}

func cloneTables(in []*experiment.Table) []*experiment.Table {
	out := make([]*experiment.Table, len(in))
	for i, t := range in {
		c := &experiment.Table{
			Title: t.Title,
			Cols:  append([]string(nil), t.Cols...),
			Notes: append([]string(nil), t.Notes...),
		}
		for _, row := range t.Rows {
			c.Rows = append(c.Rows, append([]string(nil), row...))
		}
		out[i] = c
	}
	return out
}

// meanCI formats mean ± 95% CI half-width, keeping the precision the
// scenario chose for the underlying cell.
func meanCI(vals []float64, digits int) string {
	n := float64(len(vals))
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / n
	var sq float64
	for _, v := range vals {
		d := v - mean
		sq += float64(d * d)
	}
	sd := math.Sqrt(sq / (n - 1))
	hw := 1.96 * sd / math.Sqrt(n)
	return fmt.Sprintf("%.*f±%.*f", digits, mean, digits, hw)
}

// fracDigits counts digits after the decimal point in a rendered cell,
// so aggregates match the scenario's formatting.
func fracDigits(cell string) int {
	if i := strings.IndexByte(cell, '.'); i >= 0 {
		return len(cell) - i - 1
	}
	return 0
}
