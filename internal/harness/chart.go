package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// This file renders text charts of the headline results — the "figure"
// counterpart to the paper's tables. RenderSpeedupChart draws speedup
// versus processor count per dataset and width, with the ideal linear
// speedup marked for reference.

// RenderSpeedupChart draws one chart per dataset: x-axis processors,
// y-axis speedup, one curve per width ('o' = nolimit, '*' = limited),
// '+' marking ideal linear speedup.
func (r *Results) RenderSpeedupChart(w io.Writer) {
	const (
		height = 12
		colW   = 10
	)
	for _, name := range r.datasetOrder() {
		// Gather series and the y range.
		maxY := 0.0
		series := map[int][]float64{}
		for _, width := range r.Cfg.Widths {
			var ys []float64
			for _, p := range r.Cfg.Procs {
				v := stats.Mean(r.foldSpeedups(Key{name, width, p}))
				ys = append(ys, v)
				if v > maxY {
					maxY = v
				}
			}
			series[width] = ys
		}
		for _, p := range r.Cfg.Procs {
			if float64(p) > maxY {
				maxY = float64(p)
			}
		}
		if maxY <= 0 {
			maxY = 1
		}

		fmt.Fprintf(w, "Speedup vs processors — %s ('+' ideal linear", name)
		marks := []byte{'o', '*', 'x', '@'}
		for wi, width := range r.Cfg.Widths {
			fmt.Fprintf(w, ", %q width %s", marks[wi%len(marks)], widthLabel(width))
		}
		fmt.Fprintln(w, ")")

		grid := make([][]byte, height)
		for i := range grid {
			grid[i] = []byte(strings.Repeat(" ", colW*len(r.Cfg.Procs)+4))
		}
		rowOf := func(v float64) int {
			return min(max(height-1-int(v/maxY*float64(height-1)+0.5), 0), height-1)
		}
		for pi, p := range r.Cfg.Procs {
			col := 4 + pi*colW + colW/2
			grid[rowOf(float64(p))][col] = '+'
			for wi, width := range r.Cfg.Widths {
				v := series[width][pi]
				row := rowOf(v)
				c := col + 1 + wi
				if grid[row][c] == ' ' || grid[row][c] == '+' {
					grid[row][c] = marks[wi%len(marks)]
				}
			}
		}
		for i, row := range grid {
			label := "    "
			if i == 0 {
				label = fmt.Sprintf("%4.0f", maxY)
			}
			if i == height-1 {
				label = "   0"
			}
			fmt.Fprintf(w, "%s |%s\n", label, string(row))
		}
		axis := "     +" + strings.Repeat("-", colW*len(r.Cfg.Procs))
		fmt.Fprintln(w, axis)
		lbl := "      "
		for _, p := range r.Cfg.Procs {
			lbl += fmt.Sprintf("%-*s", colW, fmt.Sprintf("p=%d", p))
		}
		fmt.Fprintln(w, lbl)
		fmt.Fprintln(w)
	}
}
