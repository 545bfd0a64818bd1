package experiment

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable result grid: one per reproduced figure panel.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
	Notes []string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a caption line printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Cols)
	line(underlines(widths))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func underlines(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// sizeLabel renders a byte count the way the paper's x-axes do.
func sizeLabel(b int64) string {
	switch {
	case b >= 1_000_000:
		if b%1_000_000 == 0 {
			return fmt.Sprintf("%dM", b/1_000_000)
		}
		return fmt.Sprintf("%.1fM", float64(b)/1e6)
	case b >= 1_000:
		if b%1_000 == 0 {
			return fmt.Sprintf("%dK", b/1_000)
		}
		return fmt.Sprintf("%.1fK", float64(b)/1e3)
	default:
		return fmt.Sprintf("%d", b)
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
