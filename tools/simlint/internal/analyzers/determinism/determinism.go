// Package determinism forbids the three ways bit-determinism per seed
// has historically broken in this simulator: wall-clock reads, the
// global math/rand generator, and map-iteration order escaping into
// simulation state or emitted output. The fuzz trace-hash property
// (PR 1) and the byte-identical -resume guarantee (PR 2) both depend on
// every run being a pure function of the seed; the Go compiler cannot
// see that invariant, so this analyzer does.
//
// Suppressions: //simlint:wallclock for genuine wall-clock uses
// (harness deadlines, debug endpoints), //simlint:rand and
// //simlint:rangemap for the rare deliberate exceptions.
//
// A fourth category, forkpurity, guards the snapshot subsystem
// (docs/SNAPSHOTS.md): functions in the fork family — Fork, Snapshot,
// Restore, SaveState, RestoreState, Checkpoint — must not read the
// wall clock or the global math/rand generator, because replayed
// state must be a pure function of captured state, never of when the
// replay runs. The category is deliberately distinct from wallclock:
// a //simlint:wallclock waiver does not license wall-clock reads
// inside fork-family code.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/tools/simlint/internal/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, and map-iteration " +
		"order leaking into simulation state or emitted output",
	Run: run,
}

// wallclockFuncs are time-package functions that read the wall clock.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// globalRandFuncs are the package-level math/rand functions backed by
// the shared global Source; any use decouples a run from its seed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int64": true, "IntN": true,
	"Uint32": true, "Uint64": true, "Uint64N": true, "UintN": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true, "N": true,
}

// forkFamily are the function names that implement whole-machine
// snapshot/restore (docs/SNAPSHOTS.md); their bodies must be pure.
var forkFamily = map[string]bool{
	"Fork": true, "Snapshot": true, "Restore": true,
	"SaveState": true, "RestoreState": true, "Checkpoint": true,
}

// orderSinkMethods are method names that emit bytes in call order;
// calling one from inside a map range makes iteration order observable.
var orderSinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "WriteAll": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		sorted := sortedObjects(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n, sorted)
			}
			return true
		})
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && forkFamily[fn.Name.Name] {
				checkForkPurity(pass, fn)
			}
		}
	}
	return nil
}

// checkForkPurity flags time sources inside fork-family functions.
// Replayed state must be a pure function of captured state; a
// wall-clock or global-rand read makes two restores of the same
// snapshot diverge.
func checkForkPurity(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name, ok := pass.CalleePkgFunc(call)
		if !ok {
			return true
		}
		switch {
		case pkg == "time" && wallclockFuncs[name]:
			pass.Reportf(call.Pos(), "forkpurity",
				"time.%s inside fork-family function %s: snapshot/restore must not depend on when it runs", name, fn.Name.Name)
		case (pkg == "math/rand" || pkg == "math/rand/v2") && globalRandFuncs[name]:
			pass.Reportf(call.Pos(), "forkpurity",
				"rand.%s inside fork-family function %s: capture a seeded stream position instead of drawing from the global generator", name, fn.Name.Name)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	pkg, name, ok := pass.CalleePkgFunc(call)
	if !ok {
		return
	}
	switch {
	case pkg == "time" && wallclockFuncs[name]:
		pass.Reportf(call.Pos(), "wallclock",
			"time.%s reads the wall clock; simulation must be a pure function of the seed (annotate //simlint:wallclock if this is genuine harness timing)", name)
	case (pkg == "math/rand" || pkg == "math/rand/v2") && globalRandFuncs[name]:
		pass.Reportf(call.Pos(), "rand",
			"rand.%s uses the global generator; thread a seeded *rand.Rand instead", name)
	}
}

// checkMapRange flags `for ... range m` over a map when the loop body
// lets iteration order escape: writing to an ordered sink (CSV, JSON,
// string builders), sending on a channel, or appending to a slice that
// the surrounding file never sorts. Order-insensitive bodies —
// aggregation, map-to-map copies, deletes — pass.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, sorted map[types.Object]bool) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(rng.Pos(), "rangemap",
				"map iteration order escapes through a channel send; iterate sorted keys instead")
			return false
		case *ast.CallExpr:
			if pkg, name, ok := pass.CalleePkgFunc(n); ok && pkg == "fmt" &&
				(strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print")) {
				pass.Reportf(rng.Pos(), "rangemap",
					"map iteration order escapes through fmt.%s; iterate sorted keys instead", name)
				return false
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && orderSinkMethods[sel.Sel.Name] {
				pass.Reportf(rng.Pos(), "rangemap",
					"map iteration order escapes through %s; iterate sorted keys instead", sel.Sel.Name)
				return false
			}
		case *ast.AssignStmt:
			if obj, ok := appendTarget(pass, n); ok && !sorted[obj] {
				pass.Reportf(rng.Pos(), "rangemap",
					"map iteration order escapes into %q, which is never sorted; sort it (or the keys) before use", obj.Name())
				return false
			}
		}
		return true
	})
}

// appendTarget recognises `x = append(x, ...)` and returns the slice
// variable appended to. Appends into fields or index expressions are
// not tracked (conservatively allowed).
func appendTarget(pass *analysis.Pass, as *ast.AssignStmt) (types.Object, bool) {
	for _, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			continue
		}
		if _, isBuiltin := pass.TypesInfo.Uses[fn].(*types.Builtin); !isBuiltin {
			continue
		}
		if id, ok := call.Args[0].(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				return obj, true
			}
		}
	}
	return nil, false
}

// sortedObjects collects every variable the file passes to a sort/slices
// ordering function; appending to one of these inside a map range is
// the standard collect-then-sort idiom and stays legal.
func sortedObjects(pass *analysis.Pass, file *ast.File) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name, ok := pass.CalleePkgFunc(call)
		if !ok {
			return true
		}
		isSort := pkg == "sort" || (pkg == "slices" && strings.HasPrefix(name, "Sort"))
		if !isSort || len(call.Args) == 0 {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}
