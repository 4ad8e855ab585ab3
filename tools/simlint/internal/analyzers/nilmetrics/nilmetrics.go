// Package nilmetrics enforces the internal/telemetry contract that a
// nil handle (*Counter, *Gauge, *Histogram, *Registry) is a valid,
// free no-op: every exported pointer-receiver method must guard the
// receiver against nil before touching its fields, so detached
// instrumentation stays a one-branch cost instead of a panic in the
// middle of a sweep. Unexported helpers (called only behind a guard)
// are exempt.
package nilmetrics

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/simlint/internal/analysis"
)

// Analyzer is the nil-receiver-safety check for telemetry handles.
var Analyzer = &analysis.Analyzer{
	Name: "nilmetrics",
	Doc: "exported methods on telemetry handle types must nil-guard the " +
		"receiver before any field access",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.PkgPath) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			checkMethod(pass, fn)
		}
	}
	return nil
}

// inScope limits the analyzer to the telemetry package (and fixture
// packages laid out under directories of the same name).
func inScope(pkgPath string) bool {
	const seg = "telemetry"
	return pkgPath == seg ||
		strings.HasSuffix(pkgPath, "/"+seg) ||
		strings.Contains(pkgPath, "/"+seg+"/")
}

func checkMethod(pass *analysis.Pass, fn *ast.FuncDecl) {
	recv := pass.ReceiverObject(fn)
	if recv == nil {
		return // unnamed receiver: the body cannot dereference it
	}
	if _, isPtr := recv.Type().(*types.Pointer); !isPtr {
		return // value receivers cannot be nil
	}

	access := firstFieldAccess(pass, fn.Body, recv)
	if access == token.NoPos {
		return
	}
	if guard := firstNilGuard(pass, fn.Body, recv); guard != token.NoPos && guard < access {
		return
	}
	pass.Reportf(fn.Name.Pos(), "nilmetrics",
		"exported method %s on handle type %s accesses receiver fields without a nil-receiver guard; nil handles must stay free no-ops",
		fn.Name.Name, recvTypeName(recv))
}

// firstFieldAccess returns the position of the lexically first receiver
// field access in body (method calls on the receiver are fine: they
// guard themselves).
func firstFieldAccess(pass *analysis.Pass, body *ast.BlockStmt, recv *types.Var) token.Pos {
	first := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !pass.UsesObject(sel.X, recv) {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			if first == token.NoPos || sel.Pos() < first {
				first = sel.Pos()
			}
		}
		return true
	})
	return first
}

// firstNilGuard returns the position of the first `recv == nil` /
// `recv != nil` comparison in body.
func firstNilGuard(pass *analysis.Pass, body *ast.BlockStmt, recv *types.Var) token.Pos {
	first := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		nilCmp := (pass.UsesObject(be.X, recv) && isNil(pass, be.Y)) ||
			(pass.UsesObject(be.Y, recv) && isNil(pass, be.X))
		if nilCmp && (first == token.NoPos || be.Pos() < first) {
			first = be.Pos()
		}
		return true
	})
	return first
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	return pass.TypesInfo.Types[e].IsNil()
}

func recvTypeName(recv *types.Var) string {
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return "*" + n.Obj().Name()
	}
	return t.String()
}
