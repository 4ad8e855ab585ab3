package harness

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Progress is a point-in-time view of a campaign: how many cells exist,
// how many finished (and how), and a naive rate-based ETA. Served live
// on the debug endpoint and usable directly by drivers.
type Progress struct {
	Cells   int `json:"cells"`   // newly executed cells scheduled so far
	Done    int `json:"done"`    // cells with a terminal outcome
	OK      int `json:"ok"`      // … that produced a value
	Gapped  int `json:"gapped"`  // … that failed terminally (recorded gaps)
	Retried int `json:"retried"` // … that needed more than one attempt
	Resumed int `json:"resumed"` // cells replayed from the journal

	ElapsedMS int64 `json:"elapsed_ms"`
	// ETAMS extrapolates the remaining wall time from the mean pace of
	// completed cells; -1 until the first cell completes.
	ETAMS int64 `json:"eta_ms"`
}

// progressState is the runner's internal progress bookkeeping.
type progressState struct {
	mu      sync.Mutex
	started time.Time
	cells   int
	done    int
	ok      int
	gapped  int
	retried int
	resumed int
}

// addSweep registers a sweep's cells: jobs newly scheduled, resumed
// replayed from the journal.
func (p *progressState) addSweep(jobs, resumed int) {
	p.mu.Lock()
	if p.started.IsZero() {
		p.started = time.Now() //simlint:wallclock progress/ETA is genuine wall time
	}
	p.cells += jobs
	p.resumed += resumed
	p.mu.Unlock()
}

// noteDone records a terminal outcome.
func (p *progressState) noteDone(o Outcome) {
	p.mu.Lock()
	p.done++
	if o.OK() {
		p.ok++
	} else {
		p.gapped++
	}
	if o.Attempts > 1 {
		p.retried++
	}
	p.mu.Unlock()
}

// snapshot renders the current Progress.
func (p *progressState) snapshot() Progress {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := Progress{
		Cells: p.cells, Done: p.done, OK: p.ok, Gapped: p.gapped,
		Retried: p.retried, Resumed: p.resumed, ETAMS: -1,
	}
	if !p.started.IsZero() {
		elapsed := time.Since(p.started) //simlint:wallclock progress/ETA is genuine wall time
		out.ElapsedMS = elapsed.Milliseconds()
		if p.done > 0 && p.cells > p.done {
			perCell := elapsed / time.Duration(p.done)
			out.ETAMS = (perCell * time.Duration(p.cells-p.done)).Milliseconds()
		} else if p.done > 0 {
			out.ETAMS = 0
		}
	}
	return out
}

// Progress returns the campaign's live progress.
func (r *Runner) Progress() Progress { return r.prog.snapshot() }

// DebugServer is the opt-in live-introspection endpoint of a campaign:
//
//	/progress     — Progress as JSON
//	/metrics      — the campaign registry in Prometheus text format
//	/debug/vars   — expvar (includes harness_progress)
//	/debug/pprof/ — the standard pprof handlers
//
// It binds a local listener (use "127.0.0.1:0" for an ephemeral port)
// and serves until Close.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// expvar.Publish panics on duplicate names; publish the harness var
// once and route it through a swappable pointer so every ServeDebug
// call (and test) can rebind it.
var (
	expvarOnce   sync.Once
	expvarMu     sync.Mutex
	expvarRunner *Runner
)

func publishExpvar(r *Runner) {
	expvarMu.Lock()
	expvarRunner = r
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("harness_progress", expvar.Func(func() any {
			expvarMu.Lock()
			cur := expvarRunner
			expvarMu.Unlock()
			if cur == nil {
				return nil
			}
			return cur.Progress()
		}))
	})
}

// ServeDebug starts the debug endpoint on addr. The campaign keeps
// running whether or not anything ever connects.
func (r *Runner) ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("harness: debug listener: %w", err)
	}
	publishExpvar(r)

	mux := http.NewServeMux()
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Progress())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		reg := r.cfg.Metrics
		if reg == nil {
			http.Error(w, "campaign has no metrics registry", http.StatusNotFound)
			return
		}
		// Trials record into per-worker engine registries; fold what the
		// workers have done so far into the campaign registry first, or
		// a mid-sweep scrape would see nothing until the sweep ends.
		r.enginePool().Drain(reg)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		telemetry.WritePrometheus(w, reg.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	d := &DebugServer{ln: ln, srv: &http.Server{Handler: mux}}
	go d.srv.Serve(ln)
	return d, nil
}

// Addr returns the bound address (resolves ":0" to the real port).
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// URL returns the http base URL of the endpoint.
func (d *DebugServer) URL() string { return "http://" + d.Addr() }

// Close stops the listener.
func (d *DebugServer) Close() error { return d.srv.Close() }
