package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseProgram assembles a textual instruction listing back into a
// Program. It accepts exactly what Program.Disassemble emits — one
// instruction per line, with an optional leading "N:" index prefix —
// plus a few conveniences for hand-written corpus witnesses:
//
//   - blank lines and comments ("#", "//" or ";" to end of line);
//   - symbolic labels: a line of the form "name:" defines a label, and
//     branch/jump targets may name it instead of using "@N";
//   - absolute targets "@N" count instruction lines, as Disassemble
//     prints them.
//
// The round trip ParseProgram(p.Disassemble()) reproduces p exactly,
// which is what lets fuzz witnesses live on disk as readable assembly.
func ParseProgram(src string) (*Program, error) {
	type pending struct {
		inst  int
		token string
		line  int
	}
	var insts []Inst
	var fixups []pending
	labels := make(map[string]int)

	for ln, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Leading "N:" index prefix from Disassemble output.
		if i := strings.Index(line, ":"); i >= 0 {
			head := strings.TrimSpace(line[:i])
			if isUint(head) {
				line = strings.TrimSpace(line[i+1:])
				if line == "" {
					return nil, fmt.Errorf("isa: line %d: index prefix without instruction", ln+1)
				}
			} else if i == len(line)-1 && isIdent(head) {
				// "name:" label definition.
				if _, dup := labels[head]; dup {
					return nil, fmt.Errorf("isa: line %d: duplicate label %q", ln+1, head)
				}
				labels[head] = len(insts)
				continue
			}
		}
		inst, target, err := parseInst(line)
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %v", ln+1, err)
		}
		if target != "" {
			fixups = append(fixups, pending{inst: len(insts), token: target, line: ln + 1})
		}
		insts = append(insts, inst)
	}
	if len(insts) == 0 {
		return nil, fmt.Errorf("isa: empty program")
	}
	for _, f := range fixups {
		var idx int
		if strings.HasPrefix(f.token, "@") {
			n, err := strconv.Atoi(f.token[1:])
			if err != nil || n < 0 || n > len(insts) {
				return nil, fmt.Errorf("isa: line %d: bad target %q", f.line, f.token)
			}
			idx = n
		} else {
			n, ok := labels[f.token]
			if !ok {
				return nil, fmt.Errorf("isa: line %d: undefined label %q", f.line, f.token)
			}
			idx = n
		}
		insts[f.inst].Target = idx
	}
	p := &Program{Insts: insts, CodeBase: 0x40_0000}
	if err := p.ValidateTargets(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseInst decodes one instruction line. For branches and jumps the
// target comes back as an unresolved token ("@N" or a label name).
func parseInst(line string) (Inst, string, error) {
	fields := strings.FieldsFunc(line, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ','
	})
	if len(fields) == 0 {
		return Inst{}, "", fmt.Errorf("no mnemonic in %q", line)
	}
	mnemonic := fields[0]
	args := fields[1:]

	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s wants %d operands, got %d", mnemonic, n, len(args))
		}
		return nil
	}

	switch mnemonic {
	case "nop":
		return Inst{Op: OpNop}, "", need(0)
	case "fence":
		return Inst{Op: OpFence}, "", need(0)
	case "halt":
		return Inst{Op: OpHalt}, "", need(0)
	case "const":
		if err := need(2); err != nil {
			return Inst{}, "", err
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return Inst{}, "", err
		}
		imm, err := strconv.ParseInt(args[1], 0, 64)
		if err != nil {
			return Inst{}, "", fmt.Errorf("bad immediate %q", args[1])
		}
		return Inst{Op: OpConst, Rd: rd, Imm: imm}, "", nil
	case "mov":
		if err := need(2); err != nil {
			return Inst{}, "", err
		}
		rd, err1 := parseReg(args[0])
		rs, err2 := parseReg(args[1])
		if err1 != nil || err2 != nil {
			return Inst{}, "", fmt.Errorf("bad register in %q", line)
		}
		return Inst{Op: OpMov, Rd: rd, Rs: rs}, "", nil
	case "rdtsc":
		if err := need(1); err != nil {
			return Inst{}, "", err
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return Inst{}, "", err
		}
		return Inst{Op: OpRdTSC, Rd: rd}, "", nil
	case "addi", "shli", "shri":
		if err := need(3); err != nil {
			return Inst{}, "", err
		}
		rd, err1 := parseReg(args[0])
		rs, err2 := parseReg(args[1])
		if err1 != nil || err2 != nil {
			return Inst{}, "", fmt.Errorf("bad register in %q", line)
		}
		imm, err := strconv.ParseInt(args[2], 0, 64)
		if err != nil {
			return Inst{}, "", fmt.Errorf("bad immediate %q", args[2])
		}
		op := map[string]Op{"addi": OpAddI, "shli": OpShlI, "shri": OpShrI}[mnemonic]
		return Inst{Op: op, Rd: rd, Rs: rs, Imm: imm}, "", nil
	case "add", "sub", "mul", "div", "and", "or", "xor":
		if err := need(3); err != nil {
			return Inst{}, "", err
		}
		rd, err1 := parseReg(args[0])
		rs, err2 := parseReg(args[1])
		rt, err3 := parseReg(args[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return Inst{}, "", fmt.Errorf("bad register in %q", line)
		}
		op := map[string]Op{
			"add": OpAdd, "sub": OpSub, "mul": OpMul, "div": OpDiv,
			"and": OpAnd, "or": OpOr, "xor": OpXor,
		}[mnemonic]
		return Inst{Op: op, Rd: rd, Rs: rs, Rt: rt}, "", nil
	case "load":
		if err := need(2); err != nil {
			return Inst{}, "", err
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return Inst{}, "", err
		}
		rs, imm, err := parseMemRef(args[1])
		if err != nil {
			return Inst{}, "", err
		}
		return Inst{Op: OpLoad, Rd: rd, Rs: rs, Imm: imm}, "", nil
	case "store":
		if err := need(2); err != nil {
			return Inst{}, "", err
		}
		rs, imm, err := parseMemRef(args[0])
		if err != nil {
			return Inst{}, "", err
		}
		rt, err := parseReg(args[1])
		if err != nil {
			return Inst{}, "", err
		}
		return Inst{Op: OpStore, Rs: rs, Imm: imm, Rt: rt}, "", nil
	case "flush":
		if err := need(1); err != nil {
			return Inst{}, "", err
		}
		rs, imm, err := parseMemRef(args[0])
		if err != nil {
			return Inst{}, "", err
		}
		return Inst{Op: OpFlush, Rs: rs, Imm: imm}, "", nil
	case "blt", "bge", "beq", "bne":
		if err := need(3); err != nil {
			return Inst{}, "", err
		}
		rs, err1 := parseReg(args[0])
		rt, err2 := parseReg(args[1])
		if err1 != nil || err2 != nil {
			return Inst{}, "", fmt.Errorf("bad register in %q", line)
		}
		op := map[string]Op{
			"blt": OpBranchLT, "bge": OpBranchGE,
			"beq": OpBranchEQ, "bne": OpBranchNE,
		}[mnemonic]
		return Inst{Op: op, Rs: rs, Rt: rt}, args[2], nil
	case "jmp":
		if err := need(1); err != nil {
			return Inst{}, "", err
		}
		return Inst{Op: OpJmp}, args[0], nil
	}
	return Inst{}, "", fmt.Errorf("unknown mnemonic %q", mnemonic)
}

// parseReg decodes "rN".
func parseReg(tok string) (Reg, error) {
	if len(tok) < 2 || tok[0] != 'r' {
		return 0, fmt.Errorf("bad register %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad register %q", tok)
	}
	return Reg(n), nil
}

// parseMemRef decodes "[rN+imm]" (imm may be negative, printed as "+-K").
func parseMemRef(tok string) (Reg, int64, error) {
	if len(tok) < 2 || tok[0] != '[' || tok[len(tok)-1] != ']' {
		return 0, 0, fmt.Errorf("bad memory operand %q", tok)
	}
	body := tok[1 : len(tok)-1]
	i := strings.Index(body, "+")
	if i < 0 {
		r, err := parseReg(body)
		return r, 0, err
	}
	r, err := parseReg(body[:i])
	if err != nil {
		return 0, 0, err
	}
	imm, err := strconv.ParseInt(body[i+1:], 0, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad offset in %q", tok)
	}
	return r, imm, nil
}

// stripComment removes "#", "//" and ";" comments.
func stripComment(line string) string {
	for _, marker := range []string{"#", "//", ";"} {
		if i := strings.Index(line, marker); i >= 0 {
			line = line[:i]
		}
	}
	return line
}

func isUint(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
