package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ObsPurity keeps observability observational. The tracer/profiler
// surface (emx/internal/obs) is wired into the engine's hottest paths
// and is explicitly allowed to READ simulated state — but the moment a
// hook mutates an engine, schedules work, or charges cycles, enabling
// tracing changes the simulation it claims to describe, and the golden
// panel hashes diverge between traced and untraced runs of the same
// RunIdentity.
//
// The analyzer walks the whole call graph from the obs entry points
// (every exported function/method of an obs package, plus any function
// marked //emx:obshook) and flags, in the reachable set:
//
//   - calls to mutating methods of the runtime state types (Engine,
//     Machine, TC, Network, Resource) — a read-only allowlist
//     (Now, Events, P, ...) is exempt;
//   - assignments that write through a value of those types;
//   - calls to cycle-charging functions (Charge*/charge*).
//
// //emx:obsexempt on the offending line is the audited escape hatch.
// Each finding carries the chain from the obs entry point, so a write
// buried two helpers deep still explains how tracing reaches it.
var ObsPurity = &Analyzer{
	Name: "obspurity",
	Doc:  "code reachable from obs hooks must not write engine/machine state or charge cycles",
	Run:  runObsPurity,
}

// obsStateTypes are the runtime state types an observability hook may
// read but never mutate.
var obsStateTypes = map[string]bool{
	"Engine":   true,
	"Machine":  true,
	"TC":       true,
	"Network":  true,
	"Resource": true,
}

// obsPureMethods are the read-only methods of those types.
var obsPureMethods = map[string]bool{
	"Now":             true,
	"Events":          true,
	"Pending":         true,
	"P":               true,
	"RouteHops":       true,
	"UnloadedLatency": true,
	"FreeAt":          true,
	"Seconds":         true,
	"Micros":          true,
	"String":          true,
}

// isObsPackage reports whether the package is an observability package:
// the real emx/internal/obs or any .../obs (which is how the fixture
// models it).
func isObsPackage(pkg *Package) bool {
	return pkg.ImportPath == "emx/internal/obs" || strings.HasSuffix(pkg.ImportPath, "/obs")
}

// obsStateValue reports whether t is (a pointer to) one of the runtime
// state types.
func obsStateValue(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && obsStateTypes[named.Obj().Name()]
}

// obsHookMarked reports whether fd carries //emx:obshook, consuming it.
func obsHookMarked(pkg *Package, fd *ast.FuncDecl) bool {
	for _, d := range pkg.Directives.All() {
		if d.Name != DirObsHook || d.Malformed {
			continue
		}
		inDoc := fd.Doc != nil && d.Pos >= fd.Doc.Pos() && d.Pos < fd.Doc.End()
		file, line := nodeLine(pkg, fd)
		onLine := d.File == file && d.EffectiveLine == line
		if inDoc || onLine {
			pkg.Directives.Use(d)
			return true
		}
	}
	return false
}

// obsReach computes (once per Program) everything reachable from the
// observability entry points.
func obsReach(prog *Program) *ReachSet {
	return prog.cached("obspurity.reach", func() any {
		g := prog.Graph()
		var roots []*FuncNode
		for _, pkg := range prog.Pkgs {
			obsPkg := isObsPackage(pkg)
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					if (obsPkg && fd.Name.IsExported()) || obsHookMarked(pkg, fd) {
						if n := g.NodeOf(funcObj(pkg, fd)); n != nil {
							roots = append(roots, n)
						}
					}
				}
			}
		}
		return g.Reach(roots, AllEdges, nil)
	}).(*ReachSet)
}

func runObsPurity(pass *Pass) {
	pkg := pass.Pkg
	reach := obsReach(pass.Prog)
	g := pass.Prog.Graph()
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if node := g.NodeOf(funcObj(pkg, fd)); node != nil && reach.Has(node) {
				checkObsFunc(pass, fd.Body, fd.Name.Name, reach, node)
			}
			// Literals inside are their own nodes; a stored closure can be
			// obs-reachable even when its container is not.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					if ln := g.NodeOfLit(lit); ln != nil && reach.Has(ln) {
						checkObsFunc(pass, lit.Body, "func literal", reach, ln)
					}
				}
				return true
			})
		}
	}
	for _, d := range pkg.Directives.Unused(DirObsHook) {
		pass.Reportf(d.Pos, "unused //emx:obshook directive: not attached to a function declaration")
	}
	for _, d := range pkg.Directives.Unused(DirObsExempt) {
		pass.Reportf(d.Pos, "unused //emx:obsexempt directive: no obs-purity finding suppressed on line %d", d.EffectiveLine)
	}
}

// checkObsFunc flags state mutations in one obs-reachable body.
func checkObsFunc(pass *Pass, body *ast.BlockStmt, name string, reach *ReachSet, node *FuncNode) {
	pkg := pass.Pkg
	report := func(n ast.Node, format string, args ...any) {
		if suppressedBy(pkg, n, DirObsExempt) {
			return
		}
		var related []Related
		if chain := reach.Chain(node); len(chain) > 0 {
			related = append(related,
				pass.RelatedAt(chain[0].From.Pos(), "reachable from obs entry point via %s", reach.ChainString(node)))
		}
		pass.ReportRelated(n.Pos(), related, format, args...)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own obs-reachable node, checked separately
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && strings.HasPrefix(strings.ToLower(id.Name), "charge") {
					report(n, "obs-reachable %s charges cycles via %s (observability must not change simulated cost)", name, id.Name)
				}
				return true
			}
			if strings.HasPrefix(strings.ToLower(sel.Sel.Name), "charge") {
				report(n, "obs-reachable %s charges cycles via %s (observability must not change simulated cost)", name, sel.Sel.Name)
				return true
			}
			if obsStateValue(pkg.Info.TypeOf(sel.X)) && !obsPureMethods[sel.Sel.Name] {
				// Only flag real methods, not func-typed field accesses.
				if _, isFn := pkg.Info.Uses[sel.Sel].(*types.Func); isFn {
					report(n, "obs-reachable %s calls mutating method %s on %s (observability must stay read-only)",
						name, sel.Sel.Name, typeDisplay(pkg.Info.TypeOf(sel.X)))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if base := writeBase(lhs); base != nil && obsStateValue(pkg.Info.TypeOf(base)) {
					report(lhs, "obs-reachable %s writes %s state (observability must stay read-only)",
						name, typeDisplay(pkg.Info.TypeOf(base)))
				}
			}
		case *ast.IncDecStmt:
			if base := writeBase(n.X); base != nil && obsStateValue(pkg.Info.TypeOf(base)) {
				report(n, "obs-reachable %s writes %s state (observability must stay read-only)",
					name, typeDisplay(pkg.Info.TypeOf(base)))
			}
		}
		return true
	})
}

// writeBase unwraps an assignment target down to the value being
// written through: x in x.f = v, x.f[i] = v, (*x).f = v. A bare
// identifier target is a local rebind, not a state write.
func writeBase(lhs ast.Expr) ast.Expr {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			return e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			return e.X
		default:
			return nil
		}
	}
}

// typeDisplay names a state type for diagnostics.
func typeDisplay(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
