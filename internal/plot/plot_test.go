package plot

import (
	"strings"
	"testing"
)

func TestCanvasMarkInBounds(t *testing.T) {
	c := NewCanvas(20, 10, 0, 10, 0, 10)
	c.Mark(5, 5, '*')
	out := c.String()
	if !strings.Contains(out, "*") {
		t.Fatal("mark not rendered")
	}
}

func TestCanvasOutOfRangeIgnored(t *testing.T) {
	c := NewCanvas(20, 10, 0, 10, 0, 10)
	c.Mark(50, 50, '*')
	c.Mark(-5, -5, '*')
	if strings.Contains(c.String(), "*") {
		t.Fatal("out-of-range points rendered")
	}
}

func TestCanvasCorners(t *testing.T) {
	c := NewCanvas(20, 10, 0, 10, 0, 10)
	c.Mark(0, 0, 'a')
	c.Mark(10, 10, 'b')
	out := c.String()
	lines := strings.Split(out, "\n")
	// 'b' (max y) must appear on an earlier line than 'a' (min y).
	var aLine, bLine int
	for i, l := range lines {
		if strings.Contains(l, "a") {
			aLine = i
		}
		if strings.Contains(l, "b") {
			bLine = i
		}
	}
	if bLine >= aLine {
		t.Fatalf("y axis inverted: a@%d b@%d", aLine, bLine)
	}
}

func TestCanvasDegenerateRanges(t *testing.T) {
	c := NewCanvas(2, 2, 5, 5, 3, 3) // zero-width ranges, tiny grid
	c.Mark(5, 3, 'x')
	_ = c.String() // must not panic
}

func TestCurvesBimodal(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	out := Curves("pdf", "latency", "density", xs, map[rune][]float64{
		'0': {0, 1, 0, 0, 0},
		'1': {0, 0, 0, 1, 0},
	}, 40, 10)
	if !strings.Contains(out, "pdf") || !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Fatalf("curves output:\n%s", out)
	}
}

func TestCurvesEmpty(t *testing.T) {
	if Curves("t", "x", "y", nil, nil, 40, 10) != "" {
		t.Fatal("empty curves should render empty")
	}
	if Curves("t", "x", "y", []float64{1}, map[rune][]float64{}, 40, 10) != "" {
		t.Fatal("no series should render empty")
	}
}

func TestScatterClasses(t *testing.T) {
	out := Scatter("latencies", "bit", "cycles", map[rune][][2]float64{
		'o': {{0, 130}, {1, 131}},
		'x': {{2, 160}, {3, 161}},
	}, 40, 10)
	if !strings.Contains(out, "o") || !strings.Contains(out, "x") {
		t.Fatalf("scatter output:\n%s", out)
	}
	if Scatter("t", "x", "y", nil, 40, 10) != "" {
		t.Fatal("empty scatter")
	}
}

func TestBars(t *testing.T) {
	out := Bars("overhead", []string{"const-25", "const-65"}, []float64{0.25, 0.65}, 20)
	if !strings.Contains(out, "const-25") || !strings.Contains(out, "█") {
		t.Fatalf("bars output:\n%s", out)
	}
	// Longer value gets a longer bar.
	l25 := strings.Count(strings.Split(out, "\n")[1], "█")
	l65 := strings.Count(strings.Split(out, "\n")[2], "█")
	if l65 <= l25 {
		t.Fatalf("bar lengths %d vs %d", l25, l65)
	}
}

func TestBarsDegenerate(t *testing.T) {
	if Bars("t", []string{"a"}, []float64{1, 2}, 10) != "" {
		t.Fatal("mismatched lengths should render empty")
	}
	if out := Bars("t", []string{"a"}, []float64{0}, 10); !strings.Contains(out, "a") {
		t.Fatal("zero values should still list labels")
	}
}
