package absint

import "repro/internal/isa"

// aval is the abstract value domain: a taint level plus an unsigned
// interval [lo, hi] (known ⇔ lo == hi). The interval exists for one
// reason: proving that masked, region-based addresses cannot reach the
// secret region, so benign generated programs get NoLeak instead of a
// flood of imprecise Unknowns. Any operation without a precise interval
// rule widens to ⊤ = [0, 2^64-1].
type aval struct {
	taint Taint
	lo    uint64
	hi    uint64
	// sourcePC is the instruction index of the load that introduced
	// this value's taint (-1 when untainted or unknown provenance).
	sourcePC int
}

const allOnes = ^uint64(0)

// known reports whether the interval pins a single value.
func (v aval) known() bool { return v.lo == v.hi }

// val returns the pinned value; callers must check known.
func (v aval) val() uint64 { return v.lo }

func knownVal(x uint64) aval { return aval{lo: x, hi: x, sourcePC: -1} }
func topUntainted() aval     { return aval{lo: 0, hi: allOnes, sourcePC: -1} }
func topTainted(t Taint, src int) aval {
	return aval{taint: t, lo: 0, hi: allOnes, sourcePC: src}
}

// withTaintFrom merges taint/provenance of a and b into v.
func (v aval) withTaintFrom(a, b aval) aval {
	v.taint = joinTaint(a.taint, b.taint)
	v.sourcePC = -1
	if a.taint != Untainted {
		v.sourcePC = a.sourcePC
	} else if b.taint != Untainted {
		v.sourcePC = b.sourcePC
	}
	// A pinned value is the same in every execution whatever the secret
	// is, so it cannot carry secret information: normalize to
	// untainted. (Known values only ever derive from constants and
	// other known values — secret-region loads always return ⊤ — so
	// this strengthens precision without weakening soundness.)
	if v.known() {
		v.taint = Untainted
		v.sourcePC = -1
	}
	return v
}

// addKnown shifts an interval by a constant, widening on wraparound.
func addKnown(v aval, c uint64) aval {
	if v.hi+c >= c { // no overflow anywhere in [lo+c, hi+c]
		v.lo += c
		v.hi += c
		return v
	}
	v.lo, v.hi = 0, allOnes
	return v
}

// evalALU abstractly evaluates a register-writing ALU instruction from
// abstract operands a (Rs) and b (Rt). Interval rules are implemented
// only where they pay for themselves in the generated-program idiom
// (mask-and-shift address formation); everything else widens to ⊤.
func evalALU(inst isa.Inst, a, b aval) aval {
	var out aval
	switch inst.Op {
	case isa.OpConst:
		return knownVal(uint64(inst.Imm))
	case isa.OpMov:
		return a
	case isa.OpAdd:
		switch {
		case a.known() && b.known():
			out = knownVal(a.val() + b.val())
		case a.known():
			out = addKnown(b, a.val())
		case b.known():
			out = addKnown(a, b.val())
		default:
			out = topUntainted()
		}
	case isa.OpAddI:
		out = addKnown(a, uint64(inst.Imm))
	case isa.OpSub:
		if a.known() && b.known() {
			out = knownVal(a.val() - b.val())
		} else {
			out = topUntainted()
		}
	case isa.OpMul:
		if a.known() && b.known() {
			out = knownVal(a.val() * b.val())
		} else {
			out = topUntainted()
		}
	case isa.OpDiv:
		// Callers ensure the faulting case never reaches here
		// architecturally; transiently a zero divisor reads as zero
		// (mirroring the core's ALU).
		if a.known() && b.known() {
			if b.val() == 0 {
				out = knownVal(0)
			} else {
				out = knownVal(a.val() / b.val())
			}
		} else {
			out = topUntainted()
		}
	case isa.OpAnd:
		switch {
		case a.known() && b.known():
			out = knownVal(a.val() & b.val())
		case b.known():
			out = aval{lo: 0, hi: min64(a.hi, b.val()), sourcePC: -1}
		case a.known():
			out = aval{lo: 0, hi: min64(b.hi, a.val()), sourcePC: -1}
		default:
			out = aval{lo: 0, hi: min64(a.hi, b.hi), sourcePC: -1}
		}
	case isa.OpOr:
		if a.known() && b.known() {
			out = knownVal(a.val() | b.val())
		} else {
			out = topUntainted()
		}
	case isa.OpXor:
		if a.known() && b.known() {
			out = knownVal(a.val() ^ b.val())
		} else {
			out = topUntainted()
		}
	case isa.OpShlI:
		s := uint(inst.Imm)
		if s >= 64 {
			out = knownVal(0)
		} else if a.hi<<s>>s == a.hi {
			// No bits shifted out anywhere in the interval: the shift
			// is monotone and exact.
			out = aval{lo: a.lo << s, hi: a.hi << s, sourcePC: -1}
		} else {
			out = topUntainted()
		}
	case isa.OpShrI:
		s := uint(inst.Imm)
		if s >= 64 {
			out = knownVal(0)
		} else {
			// Right shift is monotone: always exact on intervals.
			out = aval{lo: a.lo >> s, hi: a.hi >> s, sourcePC: -1}
		}
	default:
		// Non-ALU ops are dispatched by the engine, never here.
		out = topUntainted()
	}
	return out.withTaintFrom(a, b)
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
