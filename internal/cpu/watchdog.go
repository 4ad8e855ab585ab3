package cpu

import (
	"errors"
	"fmt"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/undo"
)

// ErrWatchdog reports that a run exhausted its MaxCycles budget. It is
// the typed form of Stats.TimedOut: experiment drivers match it with
// errors.Is so a hung trial is a classified failure instead of garbage
// silently folded into an average.
var ErrWatchdog = errors.New("cpu: watchdog cycle budget exhausted")

// WatchdogError is the error returned by RunChecked when the watchdog
// trips. It wraps ErrWatchdog and carries the post-mortem snapshot the
// harness journals alongside the failure.
type WatchdogError struct {
	Budget uint64 // the MaxCycles bound that was exceeded
	Post   PostMortem
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("cpu: watchdog tripped after %d cycles (budget %d, rob %d, fetch pc %d)",
		e.Post.RunCycles, e.Budget, e.Post.ROBOccupancy, e.Post.FetchPC)
}

func (e *WatchdogError) Unwrap() error { return ErrWatchdog }

// PostMortem is a point-in-time snapshot of the core, taken when a
// trial dies (watchdog, panic) so the failure record explains *where*
// the simulator was, not just that it stopped.
type PostMortem struct {
	Cycle     uint64 `json:"cycle"`      // absolute core cycle
	RunCycles uint64 `json:"run_cycles"` // cycles into the current program
	Retired   uint64 `json:"retired"`    // instructions retired this run

	ROBOccupancy  int  `json:"rob_occupancy"`
	InflightLoads int  `json:"inflight_loads"` // issued, incomplete loads (LSQ view)
	FetchPC       int  `json:"fetch_pc"`
	FetchStopped  bool `json:"fetch_stopped"`
	Halted        bool `json:"halted"`
	TimedOut      bool `json:"timed_out"`

	Squashes             uint64 `json:"squashes"`
	LastBranchResolution uint64 `json:"last_branch_resolution"`
	LastCleanupStall     uint64 `json:"last_cleanup_stall"`

	Undo   undo.Stats   `json:"undo"`
	Branch branch.Stats `json:"branch"`
	Hier   memsys.Stats `json:"hier"`

	// Events is the flight-recorder tail: the last pipeline events
	// before death, present when the core had a recorder enabled.
	Events        []TraceEvent `json:"events,omitempty"`
	EventsDropped uint64       `json:"events_dropped,omitempty"`
}

// PostMortem captures the core's current state. It is safe to call at
// any point between Steps (same goroutine); the harness calls it from a
// recovered panic or after a watchdog trip.
func (c *CPU) PostMortem() PostMortem {
	pm := PostMortem{
		Cycle:        c.cycle,
		RunCycles:    c.cycle - c.runStartCycle,
		Retired:      c.stats.Retired - c.runStartRetired,
		ROBOccupancy: c.robLen,
		FetchPC:      c.fetchPC,
		FetchStopped: c.fetchStopped,
		Halted:       c.halted,
		TimedOut:     c.stats.TimedOut,

		Squashes:             c.stats.Squashes,
		LastBranchResolution: c.stats.LastBranchResolution,
		LastCleanupStall:     c.stats.LastCleanupStall,
	}
	for p := c.robHead; p < c.robHead+c.robLen; p++ {
		if c.rob[p].inst.Op == isa.OpLoad && c.rob[p].is(fIssued) && !c.completedNow(p) {
			pm.InflightLoads++
		}
	}
	if c.pred != nil {
		pm.Branch = c.pred.Stats()
	}
	if c.scheme != nil {
		pm.Undo = c.scheme.Stats()
	}
	if c.hier != nil {
		pm.Hier = c.hier.Stats()
	}
	if c.flight != nil {
		pm.Events = c.flight.Events()
		pm.EventsDropped = c.flight.Dropped()
	}
	return pm
}

// RunChecked is Run with the watchdog escalated from a silent stat to a
// typed error: when the cycle budget is exhausted it returns the
// partial stats plus a *WatchdogError (errors.Is(err, ErrWatchdog)).
func (c *CPU) RunChecked(prog *isa.Program) (Stats, error) {
	st := c.Run(prog)
	if st.TimedOut {
		return st, &WatchdogError{Budget: c.cfg.MaxCycles, Post: c.PostMortem()}
	}
	return st, nil
}
