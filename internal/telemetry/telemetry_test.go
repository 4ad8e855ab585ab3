package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndHandlesAreFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_hist", "", []float64{1, 2})
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil handles")
	}
	// All of these must be safe no-ops.
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(1.5)
	h.ObserveInt(2)
	if c.Value() != 0 || g.Value() != 0 || h.Bounds() != nil {
		t.Fatalf("nil handles must read as zero")
	}
	if s := r.Snapshot(); !s.Empty() {
		t.Fatalf("nil registry snapshot must be empty")
	}
	r.Absorb(Snapshot{Counters: map[string]uint64{"a": 1}}) // must not panic
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs_total", "number of runs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("runs_total", ""); again != c {
		t.Fatalf("re-registration must return the same handle")
	}
	g := r.Gauge("occupancy", "")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound (`le`)
// semantics: an observation exactly on a boundary lands in that
// boundary's bucket, one ulp above it lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{10, 20, 30})

	cases := []struct {
		v      float64
		bucket int // index into Counts (3 bounds + overflow)
	}{
		{-5, 0},
		{0, 0},
		{10, 0}, // exactly on the first bound → first bucket
		{10.0000001, 1},
		{20, 1}, // exactly on the second bound → second bucket
		{29.999, 2},
		{30, 2},
		{30.001, 3}, // above the last bound → overflow
		{1e12, 3},
	}
	for _, tc := range cases {
		before := r.Snapshot().Histograms["lat"].Counts[tc.bucket]
		h.Observe(tc.v)
		after := r.Snapshot().Histograms["lat"].Counts[tc.bucket]
		if after != before+1 {
			t.Errorf("Observe(%v): bucket %d count %d → %d, want +1", tc.v, tc.bucket, before, after)
		}
	}
	hs := r.Snapshot().Histograms["lat"]
	if hs.Count != uint64(len(cases)) {
		t.Fatalf("total count = %d, want %d", hs.Count, len(cases))
	}
	var sum float64
	for _, tc := range cases {
		sum += tc.v
	}
	if math.Abs(hs.Sum-sum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", hs.Sum, sum)
	}
}

func TestHistogramUnsortedBoundsAreNormalized(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", "", []float64{30, 10, 20, 20})
	if got := h.Bounds(); len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("bounds = %v, want [10 20 30]", got)
	}
}

func TestHistogramModeAndMean(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stall", "", StallBuckets())
	for i := 0; i < 10; i++ {
		h.Observe(69) // the paper's Rd≈69 rollback mode
	}
	h.Observe(22)
	hs := r.Snapshot().Histograms["stall"]
	if m := hs.Mode(); m < 68 || m > 70 {
		t.Fatalf("mode = %v, want the 69-cycle bucket", m)
	}
	want := (10*69.0 + 22) / 11
	if math.Abs(hs.Mean()-want) > 1e-9 {
		t.Fatalf("mean = %v, want %v", hs.Mean(), want)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "")
	g := r.Gauge("level", "")
	h := r.Histogram("d", "", []float64{1, 2})
	c.Add(3)
	g.Set(5)
	h.Observe(1)
	prev := r.Snapshot()
	c.Add(4)
	g.Set(9)
	h.Observe(2)
	h.Observe(100)
	d := r.Snapshot().Diff(prev)
	if d.Counters["ops_total"] != 4 {
		t.Fatalf("counter diff = %d, want 4", d.Counters["ops_total"])
	}
	if d.Gauges["level"] != 9 {
		t.Fatalf("gauge diff keeps current value, got %v", d.Gauges["level"])
	}
	hd := d.Histograms["d"]
	if hd.Count != 2 || hd.Counts[0] != 0 || hd.Counts[1] != 1 || hd.Counts[2] != 1 {
		t.Fatalf("histogram diff = %+v", hd)
	}
	if math.Abs(hd.Sum-102) > 1e-9 {
		t.Fatalf("histogram diff sum = %v, want 102", hd.Sum)
	}
}

func TestAbsorbRollsUpTrialSnapshots(t *testing.T) {
	campaign := NewRegistry()
	for trial := 0; trial < 3; trial++ {
		tr := NewRegistry()
		tr.Counter("runs_total", "runs").Add(2)
		tr.Histogram("stall", "", []float64{10, 20}).Observe(15)
		campaign.Absorb(tr.Snapshot())
	}
	s := campaign.Snapshot()
	if s.Counters["runs_total"] != 6 {
		t.Fatalf("absorbed counter = %d, want 6", s.Counters["runs_total"])
	}
	hs := s.Histograms["stall"]
	if hs.Count != 3 || hs.Counts[1] != 3 {
		t.Fatalf("absorbed histogram = %+v", hs)
	}
	if s.Help["runs_total"] != "runs" {
		t.Fatalf("help string must survive absorption")
	}
}

func TestPrometheusEncoding(t *testing.T) {
	r := NewRegistry()
	r.Counter("cpu_squashes_total", "squash events").Add(7)
	r.Gauge("rob_occupancy", "").Set(12.5)
	h := r.Histogram("stall_cycles", "cleanup stall", []float64{10, 20})
	h.Observe(5)
	h.Observe(15)
	h.Observe(99)

	var b bytes.Buffer
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP cpu_squashes_total squash events",
		"# TYPE cpu_squashes_total counter",
		"cpu_squashes_total 7",
		"# TYPE rob_occupancy gauge",
		"rob_occupancy 12.5",
		"# TYPE stall_cycles histogram",
		`stall_cycles_bucket{le="10"} 1`,
		`stall_cycles_bucket{le="20"} 2`,
		`stall_cycles_bucket{le="+Inf"} 3`,
		"stall_cycles_sum 119",
		"stall_cycles_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONEncodingRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(1)
	r.Histogram("h", "", []float64{1}).Observe(0.5)
	var b bytes.Buffer
	if err := WriteJSON(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("invalid JSON: %s", b.String())
	}
	var back Snapshot
	if err := json.Unmarshal(b.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a_total"] != 1 || back.Histograms["h"].Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestConcurrentHandles(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n_total", "")
			h := r.Histogram("hh", "", []float64{100})
			g := r.Gauge("gg", "")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["n_total"] != 8000 {
		t.Fatalf("counter = %d, want 8000", s.Counters["n_total"])
	}
	if s.Histograms["hh"].Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", s.Histograms["hh"].Count)
	}
	if s.Gauges["gg"] != 8000 {
		t.Fatalf("gauge = %v, want 8000", s.Gauges["gg"])
	}
}
