package cpu

import (
	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
)

// Reference is the scanning reference core (reference_test.go), exported
// to the external test package, which can import internal/fuzz and
// internal/workload.
type Reference = scanCore

// NewReference builds a reference core; it validates like New.
func NewReference(cfg Config, hier *memsys.Hierarchy, pred branch.Direction, scheme undo.Scheme, nz noise.Model) (*Reference, error) {
	return newScanCore(cfg, hier, pred, scheme, nz)
}

// FFWorkloads returns the fast-forward test programs, one per wakeup
// source.
func FFWorkloads() map[string]*isa.Program { return ffWorkloads() }
