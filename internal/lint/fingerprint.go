package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// FingerprintPurity keeps the run-identity contract honest. The content
// address of a run hashes core.Config through Fingerprint; any field the
// method clears before hashing is thereby declared host-side-only —
// "this knob cannot change simulation results, so runs that differ only
// here may share a cache entry". That is a strong claim: it needs both
// the exclusion and a proof that results are byte-identical.
//
// The analyzer makes the claim checkable: for every receiver field a
// Fingerprint method overwrites before hashing, either
//
//   - the field declaration carries //emx:nofingerprint, attesting the
//     exclusion was audited, or
//   - no result-affecting code reads the field. "Result-affecting" is
//     approximated as: reachable, over the whole call graph, from an
//     exported function or method of a simulation-core package.
//
// A cleared field that IS read on such a path without the attestation is
// the cache-poisoning bug this check exists for: two runs with different
// behavior would collide on one cache entry. The diagnostic carries the
// read sites and their reachability chains.
//
// The inverse rot is reported too: //emx:nofingerprint on a field the
// method actually hashes is a stale attestation and gets its own
// finding, so the annotations can never drift from the code.
var FingerprintPurity = &Analyzer{
	Name: "fingerprintpurity",
	Doc:  "a Config field excluded from Fingerprint must be //emx:nofingerprint-attested or unread on result-affecting paths",
	Run:  runFingerprintPurity,
}

// fieldRead is one result-affecting read of an excluded field.
type fieldRead struct {
	pos  token.Pos
	pkg  *Package
	node *FuncNode
}

// resultReach computes (once per Program) the functions reachable from
// the exported surface of simulation-core packages — the approximation
// of "code that can affect simulation results".
func resultReach(prog *Program) *ReachSet {
	return prog.cached("fingerprintpurity.reach", func() any {
		g := prog.Graph()
		var roots []*FuncNode
		for _, pkg := range prog.Pkgs {
			if !isSimCore(pkg) {
				continue
			}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || !fd.Name.IsExported() {
						continue
					}
					if fd.Name.Name == "Fingerprint" && fd.Recv != nil {
						continue // the hasher itself is not a result path
					}
					if n := g.NodeOf(funcObj(pkg, fd)); n != nil {
						roots = append(roots, n)
					}
				}
			}
		}
		return g.Reach(roots, AllEdges, nil)
	}).(*ReachSet)
}

func runFingerprintPurity(pass *Pass) {
	pkg := pass.Pkg
	if !isSimCore(pkg) {
		return
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name != "Fingerprint" || fd.Recv == nil {
				continue
			}
			if fd.Type.Params != nil && len(fd.Type.Params.List) > 0 {
				continue
			}
			checkFingerprint(pass, fd)
		}
	}
	for _, d := range pkg.Directives.Unused(DirNoFingerprint) {
		pass.Reportf(d.Pos, "unused //emx:nofingerprint directive: line %d is not a field a Fingerprint method excludes", d.EffectiveLine)
	}
}

// checkFingerprint audits one Fingerprint method.
func checkFingerprint(pass *Pass, fd *ast.FuncDecl) {
	pkg := pass.Pkg
	recvObj := receiverObject(pkg, fd)
	if recvObj == nil {
		return
	}
	st := receiverStruct(recvObj.Type())
	if st == nil {
		return
	}

	// Track copies of the receiver: `cc := c` aliases the hashed value,
	// so `cc.Trace = false` excludes the field just like `c.Trace = false`.
	taint := NewTaint(pkg, func(expr ast.Expr) Labels {
		if id, ok := expr.(*ast.Ident); ok && pkg.Info.Uses[id] == recvObj {
			return Labels{"recv": true}
		}
		return nil
	})
	taint.Bind(recvObj, Labels{"recv": true})
	taint.Run(fd.Body)

	// Excluded fields: receiver fields overwritten before hashing.
	excluded := map[*types.Var]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok || !taint.Of(sel.X)["recv"] {
				continue
			}
			if field, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && field.IsField() {
				if _, seen := excluded[field]; !seen {
					excluded[field] = sel.Pos()
				}
			}
		}
		return true
	})

	reach := resultReach(pass.Prog)
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		d := fieldDirective(pkg, field, DirNoFingerprint)
		site, isExcluded := excluded[field]
		if !isExcluded {
			if d != nil {
				pkg.Directives.Use(d)
				pass.Reportf(d.Pos,
					"stale //emx:nofingerprint on field %s: Fingerprint hashes this field",
					field.Name())
			}
			continue
		}
		if d != nil {
			pkg.Directives.Use(d)
			continue // audited exclusion
		}
		reads := resultAffectingReads(pass.Prog, reach, field, fd)
		if len(reads) == 0 {
			continue // genuinely host-side: nothing result-affecting looks
		}
		related := make([]Related, 0, 4)
		for j, r := range reads {
			if j == 3 {
				break
			}
			related = append(related, Related{
				Pos:     r.pkg.Fset.Position(r.pos),
				Message: "read here, result-affecting via " + reach.ChainString(r.node),
			})
		}
		pass.ReportRelated(site, related,
			"field %s is excluded from Fingerprint but read on %d result-affecting path(s); annotate the field //emx:nofingerprint after auditing that it cannot change results",
			field.Name(), len(reads))
	}
}

// receiverObject returns the (named) receiver variable of fd, or nil.
func receiverObject(pkg *Package, fd *ast.FuncDecl) types.Object {
	for _, fld := range fd.Recv.List {
		for _, name := range fld.Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				return obj
			}
		}
	}
	return nil
}

// receiverStruct unwraps a receiver type down to its struct.
func receiverStruct(t types.Type) *types.Struct {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// fieldDirective finds the named directive on a field's declaration
// line, or nil. The field and the Fingerprint method live in the same
// package (methods cannot be declared remotely), so pkg's index is the
// right one.
func fieldDirective(pkg *Package, field *types.Var, name string) *Directive {
	pos := pkg.Fset.Position(field.Pos())
	return pkg.Directives.At(pos.Filename, pos.Line, name)
}

// resultAffectingReads scans the simulation-core packages for rvalue
// reads of field inside functions reachable from the exported surface,
// skipping the Fingerprint method itself.
func resultAffectingReads(prog *Program, reach *ReachSet, field *types.Var, fingerprint *ast.FuncDecl) []fieldRead {
	g := prog.Graph()
	var reads []fieldRead
	for _, pkg := range prog.Pkgs {
		if !isSimCore(pkg) {
			continue
		}
		for _, f := range pkg.Files {
			// Writes are exclusions/mutations, not observations: collect
			// LHS positions so `x.F = v` does not count as a read of F.
			writes := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
					for _, lhs := range as.Lhs {
						writes[ast.Unparen(lhs)] = true
					}
				}
				return true
			})
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd == fingerprint {
					continue
				}
				declNode := g.NodeOf(funcObj(pkg, fd))
				// Enclosing function per site: literals are their own nodes.
				var stack []*FuncNode
				if declNode != nil {
					stack = append(stack, declNode)
				}
				var walk func(n ast.Node)
				walk = func(n ast.Node) {
					ast.Inspect(n, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.FuncLit:
							if ln := g.NodeOfLit(n); ln != nil {
								stack = append(stack, ln)
								walk(n.Body)
								stack = stack[:len(stack)-1]
								return false
							}
						case *ast.SelectorExpr:
							if writes[n] || pkg.Info.Uses[n.Sel] != field.Origin() {
								return true
							}
							if len(stack) == 0 || !reach.Has(stack[len(stack)-1]) {
								return true
							}
							reads = append(reads, fieldRead{pos: n.Pos(), pkg: pkg, node: stack[len(stack)-1]})
						}
						return true
					})
				}
				walk(fd.Body)
			}
		}
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].pos < reads[j].pos })
	return reads
}
