// Package plot renders the experiment series as ASCII charts so the
// paper's figures are viewable straight from the terminal: line charts
// for the KDE curves (Figures 7/8), scatter plots for per-bit latencies
// (Figures 10/11), and bar charts for the overhead study (Figure 12).
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Canvas is a character grid with data-space mapping.
type Canvas struct {
	w, h       int
	cells      [][]rune
	xmin, xmax float64
	ymin, ymax float64
	xlab, ylab string
	title      string
}

// NewCanvas builds a w×h plotting area over the given data ranges.
func NewCanvas(w, h int, xmin, xmax, ymin, ymax float64) *Canvas {
	if w < 8 {
		w = 8
	}
	if h < 4 {
		h = 4
	}
	if xmax <= xmin {
		xmax = xmin + 1
	}
	if ymax <= ymin {
		ymax = ymin + 1
	}
	c := &Canvas{w: w, h: h, xmin: xmin, xmax: xmax, ymin: ymin, ymax: ymax}
	c.cells = make([][]rune, h)
	for i := range c.cells {
		c.cells[i] = make([]rune, w)
		for j := range c.cells[i] {
			c.cells[i][j] = ' '
		}
	}
	return c
}

// SetTitle sets the chart heading.
func (c *Canvas) SetTitle(t string) { c.title = t }

// SetLabels names the axes.
func (c *Canvas) SetLabels(x, y string) { c.xlab, c.ylab = x, y }

// cell maps a data point to grid coordinates.
func (c *Canvas) cell(x, y float64) (col, row int, ok bool) {
	fx := (x - c.xmin) / (c.xmax - c.xmin)
	fy := (y - c.ymin) / (c.ymax - c.ymin)
	col = int(fx * float64(c.w-1))
	row = c.h - 1 - int(fy*float64(c.h-1))
	ok = col >= 0 && col < c.w && row >= 0 && row < c.h
	return col, row, ok
}

// Mark plots one point with the given glyph.
func (c *Canvas) Mark(x, y float64, glyph rune) {
	if col, row, ok := c.cell(x, y); ok {
		c.cells[row][col] = glyph
	}
}

// Line plots a series as connected glyphs (no interpolation between
// columns beyond per-column vertical placement).
func (c *Canvas) Line(xs, ys []float64, glyph rune) {
	for i := range xs {
		if i < len(ys) && !math.IsNaN(ys[i]) {
			c.Mark(xs[i], ys[i], glyph)
		}
	}
}

// String renders the canvas with a frame and axis annotations.
func (c *Canvas) String() string {
	var sb strings.Builder
	if c.title != "" {
		fmt.Fprintf(&sb, "%s\n", c.title)
	}
	fmt.Fprintf(&sb, "%10.3g ┤", c.ymax)
	sb.WriteString(string(c.cells[0]))
	sb.WriteString("\n")
	for row := 1; row < c.h-1; row++ {
		sb.WriteString("           │")
		sb.WriteString(string(c.cells[row]))
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%10.3g ┤", c.ymin)
	sb.WriteString(string(c.cells[c.h-1]))
	sb.WriteString("\n")
	sb.WriteString("           └")
	sb.WriteString(strings.Repeat("─", c.w))
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "            %-12.1f%s%12.1f\n", c.xmin, center(c.xlab, c.w-24), c.xmax)
	if c.ylab != "" {
		fmt.Fprintf(&sb, "            y: %s\n", c.ylab)
	}
	return sb.String()
}

func center(s string, width int) string {
	if width < len(s) {
		return s
	}
	pad := width - len(s)
	return strings.Repeat(" ", pad/2) + s + strings.Repeat(" ", pad-pad/2)
}

// Curves renders one or more (x, y) series on a shared canvas, auto-
// scaled, with distinct glyphs per series.
func Curves(title, xlab, ylab string, xs []float64, series map[rune][]float64, w, h int) string {
	if len(xs) == 0 {
		return ""
	}
	xmin, xmax := xs[0], xs[0]
	for _, x := range xs {
		xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
	}
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, ys := range series {
		for _, y := range ys {
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if math.IsInf(ymin, 1) {
		return ""
	}
	c := NewCanvas(w, h, xmin, xmax, ymin, ymax)
	c.SetTitle(title)
	c.SetLabels(xlab, ylab)
	for glyph, ys := range series {
		c.Line(xs, ys, glyph)
	}
	return c.String()
}

// Scatter renders index-vs-value points split into classes by glyph.
func Scatter(title, xlab, ylab string, classes map[rune][][2]float64, w, h int) string {
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, pts := range classes {
		for _, p := range pts {
			xmin, xmax = math.Min(xmin, p[0]), math.Max(xmax, p[0])
			ymin, ymax = math.Min(ymin, p[1]), math.Max(ymax, p[1])
		}
	}
	if math.IsInf(xmin, 1) {
		return ""
	}
	c := NewCanvas(w, h, xmin, xmax, ymin, ymax)
	c.SetTitle(title)
	c.SetLabels(xlab, ylab)
	for glyph, pts := range classes {
		for _, p := range pts {
			c.Mark(p[0], p[1], glyph)
		}
	}
	return c.String()
}

// Bars renders a horizontal bar chart with labels.
func Bars(title string, labels []string, values []float64, width int) string {
	if len(labels) == 0 || len(labels) != len(values) {
		return ""
	}
	maxVal := 0.0
	maxLab := 0
	for i, v := range values {
		if v > maxVal {
			maxVal = v
		}
		if len(labels[i]) > maxLab {
			maxLab = len(labels[i])
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}
	var sb strings.Builder
	if title != "" {
		fmt.Fprintf(&sb, "%s\n", title)
	}
	for i, v := range values {
		n := int(v / maxVal * float64(width))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&sb, "%-*s │%s %.3f\n", maxLab, labels[i], strings.Repeat("█", n), v)
	}
	return sb.String()
}
