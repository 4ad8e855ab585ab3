package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/telemetry"
)

func TestCampaignMetricsRollup(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := mustRunner(t, Config{Workers: 2, Metrics: reg})
	cells := okCells(4)
	// One cell records its own trial-local metric; the rollup must
	// absorb it into the campaign registry.
	cells = append(cells, Cell{
		ID:   "instrumented",
		Seed: 7,
		Run: func(tr *Trial) (any, error) {
			if tr.Metrics == nil {
				t.Error("trial has no per-trial registry despite Config.Metrics")
				return val{}, nil
			}
			tr.Metrics.Counter("trial_widgets_total", "widgets").Add(3)
			return val{ID: tr.Cell}, nil
		},
	})
	rep, err := r.Sweep("roll", cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures()) != 0 {
		t.Fatalf("unexpected failures: %+v", rep.Failures())
	}

	snap := reg.Snapshot()
	if got := snap.Counters["harness_attempts_total"]; got != 5 {
		t.Errorf("harness_attempts_total = %d, want 5", got)
	}
	if got := snap.Counters["trial_widgets_total"]; got != 3 {
		t.Errorf("trial_widgets_total = %d, want 3 (trial registry not absorbed)", got)
	}

	// Each successful outcome carries its own trial snapshot.
	for _, o := range rep.Outcomes {
		if o.Metrics == nil {
			t.Fatalf("outcome %s has no metrics snapshot", o.Cell)
		}
	}
}

func TestRetriedAttemptsAllAbsorbed(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := mustRunner(t, Config{Workers: 1, MaxAttempts: 3, BackoffBase: time.Microsecond, Metrics: reg})
	tries := 0
	cells := []Cell{{
		ID:   "flaky",
		Seed: 1,
		Run: func(tr *Trial) (any, error) {
			tr.Metrics.Counter("attempt_work_total", "work per attempt").Inc()
			tries++
			if tries < 3 {
				return nil, Transient(fmt.Errorf("try again"))
			}
			return val{ID: tr.Cell}, nil
		},
	}}
	rep, err := r.Sweep("retry", cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures()) != 0 {
		t.Fatalf("cell did not recover: %+v", rep.Failures())
	}
	snap := reg.Snapshot()
	// Every attempt's partial work rolls up, not just the winner's.
	if got := snap.Counters["attempt_work_total"]; got != 3 {
		t.Errorf("attempt_work_total = %d, want 3", got)
	}
	if got := snap.Counters["harness_retries_total"]; got != 2 {
		t.Errorf("harness_retries_total = %d, want 2", got)
	}
	// The outcome snapshot is the final attempt's only.
	if got := rep.Outcomes[0].Metrics.Counters["attempt_work_total"]; got != 1 {
		t.Errorf("outcome snapshot attempt_work_total = %d, want 1", got)
	}
}

func TestJournalCarriesMetricsSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	reg := telemetry.NewRegistry()
	r := mustRunner(t, Config{Workers: 1, JournalPath: path, Metrics: reg})
	cells := []Cell{{
		ID:   "j",
		Seed: 1,
		Run: func(tr *Trial) (any, error) {
			tr.Metrics.Counter("journaled_total", "x").Inc()
			return val{ID: tr.Cell}, nil
		},
	}}
	if _, err := r.Sweep("jm", cells); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume from the journal: the replayed outcome must still carry the
	// snapshot, and the campaign registry must re-absorb nothing new
	// (replay is bookkeeping, not re-execution).
	reg2 := telemetry.NewRegistry()
	r2 := mustRunner(t, Config{Workers: 1, JournalPath: path, Resume: true, Metrics: reg2})
	rep, err := r2.Sweep("jm", cells)
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[0]
	if o.Metrics == nil {
		t.Fatal("resumed outcome lost its metrics snapshot")
	}
	if got := o.Metrics.Counters["journaled_total"]; got != 1 {
		t.Errorf("resumed snapshot journaled_total = %d, want 1", got)
	}
}

// TestTrialLatencyExemplarNamesJournaledCell pins the outlier walk:
// the campaign's harness_trial_latency_ms exemplar names the slowest
// cell, and that name is a key of the journal ReadRecords returns.
func TestTrialLatencyExemplarNamesJournaledCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	reg := telemetry.NewRegistry()
	r := mustRunner(t, Config{Workers: 2, JournalPath: path, Metrics: reg})
	cells := okCells(4)
	cells = append(cells, Cell{
		ID:   "slow",
		Seed: 9,
		Run: func(tr *Trial) (any, error) {
			time.Sleep(50 * time.Millisecond)
			return val{ID: tr.Cell}, nil
		},
	})
	if _, err := r.Sweep("ex", cells); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	ex := reg.Snapshot().Histograms["harness_trial_latency_ms"].Exemplar
	if ex == nil || ex.Cell != "ex/slow" || ex.Value < 50 {
		t.Fatalf("trial-latency exemplar = %+v, want the slow cell ex/slow at >= 50 ms", ex)
	}
	recs, _, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := recs[ex.Cell]; !ok || rec.Class != ClassOK {
		t.Fatalf("exemplar cell %s has no ok journal record: %+v", ex.Cell, rec)
	}
}

func TestProgressCountsAndETA(t *testing.T) {
	r := mustRunner(t, Config{Workers: 2})
	if p := r.Progress(); p.Done != 0 || p.ETAMS != -1 {
		t.Fatalf("fresh runner progress = %+v", p)
	}
	if _, err := r.Sweep("prog", okCells(6)); err != nil {
		t.Fatal(err)
	}
	p := r.Progress()
	if p.Cells != 6 || p.Done != 6 || p.OK != 6 || p.Gapped != 0 {
		t.Fatalf("progress after sweep = %+v", p)
	}
	if p.ETAMS != 0 {
		t.Errorf("finished campaign ETA = %d, want 0", p.ETAMS)
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("campaign_total", "c").Add(9)
	r := mustRunner(t, Config{Workers: 1, Metrics: reg})
	if _, err := r.Sweep("dbg", okCells(3)); err != nil {
		t.Fatal(err)
	}
	d, err := r.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(d.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress: %d", code)
	}
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if p.Done != 3 || p.OK != 3 {
		t.Errorf("/progress = %+v", p)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(body, "campaign_total 9") {
		t.Errorf("/metrics missing campaign counter:\n%s", body)
	}

	code, body = get("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars: %d", code)
	}
	if !strings.Contains(body, "harness_progress") {
		t.Error("/debug/vars missing harness_progress")
	}

	if code, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}

	// A second runner may rebind the expvar (no duplicate-publish panic)
	// and a registry-less runner 404s on /metrics.
	r2 := mustRunner(t, Config{Workers: 1})
	d2, err := r2.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	resp, err := http.Get(d2.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("registry-less /metrics = %d, want 404", resp.StatusCode)
	}
}

// TestLiveScrapeMidSweep checks the live /metrics endpoint while a
// sweep runs: trials record into per-worker engine registries, so a
// scrape must drain them to see anything before the sweep ends. The
// last cell holds its worker until a scrape has shown the trials'
// metrics, which pins that scrape inside the sweep; the scraper keeps
// polling until the sweep returns. The final rollup must equal an
// unscraped sweep's — counters, gauges, histograms and exemplars —
// because Drain absorbs every trial's mass exactly once however often
// it runs. The harness's own trial-latency histogram is wall-clock, so
// only its count is compared.
func TestLiveScrapeMidSweep(t *testing.T) {
	const n = 8
	cells := func(gate <-chan struct{}) []Cell {
		var out []Cell
		for i := 0; i < n; i++ {
			i := i
			out = append(out, Cell{
				ID:   fmt.Sprintf("c%d", i),
				Seed: int64(i),
				Run: func(tr *Trial) (any, error) {
					if i == n-1 && gate != nil {
						select {
						case <-gate:
						case <-time.After(10 * time.Second):
							return nil, fmt.Errorf("no mid-sweep scrape showed the trials' metrics within 10s")
						}
					}
					tr.Metrics.Counter("widgets_total", "widgets").Add(uint64(i + 1))
					tr.Metrics.Gauge("widget_level", "level").Set(4)
					tr.Metrics.Histogram("widget_size", "size", []float64{2, 4, 8}).
						ObserveExemplar(float64(i), fmt.Sprintf("trace-%d", i))
					return val{ID: tr.Cell}, nil
				},
			})
		}
		return out
	}

	ref := telemetry.NewRegistry()
	if _, err := mustRunner(t, Config{Workers: 2, Metrics: ref}).Sweep("live", cells(nil)); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	r := mustRunner(t, Config{Workers: 2, Metrics: reg})
	d, err := r.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	gate, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() { // scrape until the sweep returns
		defer close(done)
		for opened := false; ; {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(d.URL() + "/metrics")
			if err != nil {
				continue
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !opened && strings.Contains(string(body), "widgets_total") {
				opened = true
				close(gate)
			}
		}
	}()
	rep, err := r.Sweep("live", cells(gate))
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	// The gated cell fails unless a mid-sweep scrape showed the trials'
	// own metrics.
	if len(rep.Failures()) != 0 {
		t.Fatalf("unexpected failures: %+v", rep.Failures())
	}

	got, want := reg.Snapshot(), ref.Snapshot()
	const wall = "harness_trial_latency_ms"
	if g, w := got.Histograms[wall].Count, want.Histograms[wall].Count; g != n || w != n {
		t.Errorf("%s count = %d scraped, %d unscraped, want %d", wall, g, w, n)
	}
	delete(got.Histograms, wall)
	delete(want.Histograms, wall)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scraped sweep rollup differs from unscraped:\n got  %+v\n want %+v", got, want)
	}
}

func TestInjectedPanicPostMortemHasEvents(t *testing.T) {
	injs, err := ParseInjections("panic:inj/boom")
	if err != nil {
		t.Fatal(err)
	}
	r := mustRunner(t, Config{Workers: 1, MaxAttempts: 1, Injections: injs})
	cells := []Cell{{
		ID:   "boom",
		Seed: 1,
		Run: func(tr *Trial) (any, error) {
			c := core(t)
			tr.Observe(c)
			c.Run(isa.NewBuilder().Const(1, 1).AddI(1, 1, 2).Halt().MustBuild())
			return val{ID: tr.Cell}, nil
		},
	}}
	rep, err := r.Sweep("inj", cells)
	if err != nil {
		t.Fatal(err)
	}
	fails := rep.Failures()
	if len(fails) != 1 || fails[0].Class != ClassPanic {
		t.Fatalf("expected one panic failure, got %+v", fails)
	}
	// The injected panic is deferred until after Run, so the observed
	// machine's post-mortem carries the attempt's real pipeline events.
	if fails[0].Post == nil || len(fails[0].Post.Events) == 0 {
		t.Fatal("injected-panic post-mortem has no flight-recorder events")
	}
}

func TestObserveEnablesFlightRecorder(t *testing.T) {
	r := mustRunner(t, Config{Workers: 1, MaxAttempts: 1})
	cells := []Cell{{
		ID:   "boom",
		Seed: 1,
		Run: func(tr *Trial) (any, error) {
			c := core(t)
			// Observe first: it enables the flight recorder, so the run's
			// events land in the ring before the panic.
			tr.Observe(c)
			c.Run(isa.NewBuilder().Const(1, 1).AddI(1, 1, 2).Halt().MustBuild())
			panic("after observe")
		},
	}}
	rep, err := r.Sweep("flight", cells)
	if err != nil {
		t.Fatal(err)
	}
	fails := rep.Failures()
	if len(fails) != 1 || fails[0].Post == nil {
		t.Fatalf("expected one post-mortem failure, got %+v", fails)
	}
	if len(fails[0].Post.Events) == 0 {
		t.Fatal("post-mortem has no flight-recorder events: Observe did not enable the ring")
	}
}
