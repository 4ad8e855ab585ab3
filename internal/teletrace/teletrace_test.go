package teletrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// testTracer builds a deterministic tracer: fixed seed, fake clock
// ticking 1000ns per call.
func testTracer(service string, store *Store) *Tracer {
	var tick int64
	tr := New(Config{Service: service, Store: store, Seed: 42})
	tr.now = func() int64 {
		tick += 1000
		return tick
	}
	return tr
}

func TestIDJSONRoundTrip(t *testing.T) {
	d := SpanData{Trace: 0xabc, ID: 0xdef, Parent: 0x123, Name: "x"}
	buf, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf, []byte(`"0000000000000abc"`)) {
		t.Fatalf("trace ID not hex-encoded: %s", buf)
	}
	var back SpanData
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace != d.Trace || back.ID != d.ID || back.Parent != d.Parent {
		t.Fatalf("round trip: got %+v want %+v", back, d)
	}
}

func TestSpanLifecycle(t *testing.T) {
	store := NewStore(0)
	tr := testTracer("svc", store)
	root := tr.StartRoot("harness/cell")
	if root.TraceID() == 0 {
		t.Fatal("root span has no trace ID")
	}
	root.SetAttr("cell", "figure3/r1")
	root.Event("backoff", "10ms")
	child := root.StartChild("harness/attempt")
	child.SetErrorString("hang: deadline exceeded")
	child.End()
	root.End()
	root.End() // idempotent
	root.Event("late", "dropped after End")

	spans := store.Spans()
	if len(spans) != 2 {
		t.Fatalf("stored %d spans, want 2", len(spans))
	}
	var rootD, childD SpanData
	for _, d := range spans {
		if d.Parent == 0 {
			rootD = d
		} else {
			childD = d
		}
	}
	if childD.Parent != rootD.ID || childD.Trace != rootD.Trace {
		t.Fatalf("child not linked: child=%+v root=%+v", childD, rootD)
	}
	if rootD.Attrs["cell"] != "figure3/r1" {
		t.Fatalf("attr lost: %+v", rootD.Attrs)
	}
	if len(rootD.Events) != 1 || rootD.Events[0].Name != "backoff" {
		t.Fatalf("events: %+v (post-End event must be dropped)", rootD.Events)
	}
	if childD.Error != "hang: deadline exceeded" {
		t.Fatalf("child error: %q", childD.Error)
	}
	if rootD.durationNS() <= 0 || rootD.EndNS <= rootD.StartNS {
		t.Fatalf("bad timestamps: %+v", rootD)
	}
}

func TestSpanEventBound(t *testing.T) {
	store := NewStore(0)
	tr := testTracer("svc", store)
	s := tr.StartRoot("x")
	for i := 0; i < maxEvents+10; i++ {
		s.Event("ff", "")
	}
	s.End()
	d := store.Spans()[0]
	if len(d.Events) != maxEvents || d.DroppedEvents != 10 {
		t.Fatalf("got %d events, %d dropped; want %d / 10", len(d.Events), d.DroppedEvents, maxEvents)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	var st *Store
	s := tr.StartRoot("x")
	if s != nil {
		t.Fatal("nil tracer must start nil spans")
	}
	// All of these must be free no-ops, not panics.
	s.SetAttr("k", "v")
	s.Event("e", "d")
	s.Eventf("e", "%d", 1)
	s.SetErrorString("boom")
	s.End()
	if s.TraceID() != 0 {
		t.Fatal("nil span trace ID must be zero")
	}
	if s.StartChild("y") != nil {
		t.Fatal("nil span child must be nil")
	}
	st.add(SpanData{Trace: 1, ID: 1})
	if st.Spans() != nil {
		t.Fatal("nil store reads must be empty")
	}
}

func TestDeterministicIDs(t *testing.T) {
	a := testTracer("svc", nil)
	b := testTracer("svc", nil)
	for i := 0; i < 10; i++ {
		if x, y := a.nextID(), b.nextID(); x != y {
			t.Fatalf("seeded tracers diverge at draw %d: %x vs %x", i, x, y)
		}
	}
}

func TestStoreBound(t *testing.T) {
	st := NewStore(4)
	for i := 1; i <= 6; i++ {
		st.add(SpanData{Trace: 1, ID: SpanID(i)})
	}
	// Zero-ID spans are discarded and never evict a real one.
	st.add(SpanData{Trace: 0, ID: 9})
	st.add(SpanData{Trace: 9, ID: 0})
	got := st.Spans()
	if len(got) != 4 {
		t.Fatalf("stored %d spans, want cap 4", len(got))
	}
	// Oldest evicted first; the rest stay in insertion order.
	for i, d := range got {
		if want := SpanID(i + 3); d.ID != want {
			t.Fatalf("span %d = %v, want %v (FIFO eviction, insertion order)", i, d.ID, want)
		}
	}
}

func TestWriteTreeAndReadSpans(t *testing.T) {
	st := NewStore(0)
	tr := testTracer("figures", st)
	root := tr.StartRoot("harness/cell")
	att := root.StartChild("harness/attempt")
	att.Event("retry", "seed perturbed")
	att.End()
	root.End()

	// Round-trip through the JSON-on-disk form cmd/trace reads.
	var jsonBuf bytes.Buffer
	if err := json.NewEncoder(&jsonBuf).Encode(st.Spans()); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteTree(&buf, spans); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace " + root.TraceID().String(), "harness/cell", "  harness/attempt", "· retry"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree missing %q:\n%s", want, out)
		}
	}
	// Child must be indented deeper than its parent.
	rootLine := strings.Index(out, "harness/cell")
	childLine := strings.Index(out, "harness/attempt")
	if childLine < rootLine {
		t.Fatalf("child rendered before parent:\n%s", out)
	}
}

func TestConcurrentSpanUse(t *testing.T) {
	st := NewStore(0)
	tr := New(Config{Service: "svc", Store: st, Seed: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			root := tr.StartRoot(fmt.Sprintf("root-%d", g))
			for i := 0; i < 50; i++ {
				root.Event("e", "")
				root.SetAttr(fmt.Sprintf("k%d", i%4), "v")
				c := root.StartChild("c")
				c.End()
			}
			root.End()
		}(g)
	}
	wg.Wait()
	if n := len(st.Spans()); n != 8*51 {
		t.Fatalf("stored %d spans, want %d", n, 8*51)
	}
}
