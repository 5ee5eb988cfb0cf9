package lint_test

import (
	"strings"
	"testing"

	"emx/internal/lint"
)

// loadGraph loads packages and builds their call graph.
func loadGraph(t *testing.T, patterns ...string) (*lint.Program, []string) {
	t.Helper()
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	prog := lint.NewProgram(pkgs)
	return prog, prog.Graph().DumpLines(pkgs[0].Fset)
}

// hasEdge reports whether the dump contains an edge matching every
// fragment (caller name, callee name, kind).
func hasEdge(lines []string, fragments ...string) bool {
	for _, line := range lines {
		ok := true
		for _, f := range fragments {
			if !strings.Contains(line, f) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestCallGraphFixture(t *testing.T) {
	_, lines := loadGraph(t, "emx/internal/lint/testdata/src/callgraph")
	pkg := "emx/internal/lint/testdata/src/callgraph"

	// Plain static call.
	if !hasEdge(lines, pkg+".direct -> "+pkg+".helper", "[direct]") {
		t.Errorf("missing direct edge direct -> helper\n%s", strings.Join(lines, "\n"))
	}
	// Method value: a reference, not a call.
	if !hasEdge(lines, pkg+".viaValue -> "+pkg+".(fast).run", "[ref]") {
		t.Errorf("missing ref edge viaValue -> (fast).run\n%s", strings.Join(lines, "\n"))
	}
	// Interface dispatch over-approximates: the abstract method AND
	// every loaded implementation, value or pointer receiver.
	for _, callee := range []string{".(runner).run", ".(fast).run", ".(slow).run"} {
		if !hasEdge(lines, pkg+".dispatch -> "+pkg+callee, "[iface]") {
			t.Errorf("missing iface edge dispatch -> %s\n%s", callee, strings.Join(lines, "\n"))
		}
	}
	// funcRunner lane: the closure handed to sim.After is a closure
	// edge, and its body keeps its own direct edges.
	if !hasEdge(lines, pkg+".schedule -> "+pkg+".func@line", "[closure]") {
		t.Errorf("missing closure edge schedule -> literal\n%s", strings.Join(lines, "\n"))
	}
	if !hasEdge(lines, pkg+".func@line", " -> "+pkg+".helper", "[direct]") {
		t.Errorf("missing direct edge literal -> helper\n%s", strings.Join(lines, "\n"))
	}
	// The scheduling call itself is a direct edge into the (body-less,
	// export-data-only) engine method.
	if !hasEdge(lines, pkg+".schedule -> emx/internal/sim.(Engine).After", "[direct]") {
		t.Errorf("missing direct edge schedule -> sim.(Engine).After\n%s", strings.Join(lines, "\n"))
	}
	// A direct call must not be double-counted as a reference.
	if hasEdge(lines, pkg+".direct -> "+pkg+".helper", "[ref]") {
		t.Errorf("direct call double-counted as ref\n%s", strings.Join(lines, "\n"))
	}
}

// TestCallGraphRealEngine loads the real scheduler package and checks
// the funcRunner lane end to end: Engine.At wraps the user closure, and
// the handler dispatch is visible as iface edges to OnEvent methods.
func TestCallGraphRealEngine(t *testing.T) {
	_, lines := loadGraph(t, "emx/internal/sim")

	// The closure-scheduling API routes into the handler lane.
	if !hasEdge(lines, "emx/internal/sim.(Engine).At -> emx/internal/sim.(Engine).AtHandler", "[direct]") {
		t.Errorf("Engine.At does not reach AtHandler\n%s", strings.Join(lines, "\n"))
	}
	// Handler dispatch: something in sim calls Handler.OnEvent through
	// the interface, and funcRunner.OnEvent is among the conservative
	// targets.
	if !hasEdge(lines, " -> emx/internal/sim.(funcRunner).OnEvent", "[iface]") {
		t.Errorf("funcRunner.OnEvent not reached by iface dispatch\n%s", strings.Join(lines, "\n"))
	}
}

func TestReachAndChains(t *testing.T) {
	prog, _ := loadGraph(t, "emx/internal/lint/testdata/src/callgraph")
	g := prog.Graph()

	var schedule, helper, dispatch, slowRun *lint.FuncNode
	for _, n := range g.Nodes() {
		switch n.Name() {
		case "emx/internal/lint/testdata/src/callgraph.schedule":
			schedule = n
		case "emx/internal/lint/testdata/src/callgraph.helper":
			helper = n
		case "emx/internal/lint/testdata/src/callgraph.dispatch":
			dispatch = n
		case "emx/internal/lint/testdata/src/callgraph.(slow).run":
			slowRun = n
		}
	}
	if schedule == nil || helper == nil || dispatch == nil || slowRun == nil {
		t.Fatal("fixture nodes not found in graph")
	}

	// helper is reachable from schedule only through the closure edge.
	all := g.Reach([]*lint.FuncNode{schedule}, lint.AllEdges, nil)
	if !all.Has(helper) {
		t.Error("helper not reachable from schedule over all edges")
	}
	if chain := all.ChainString(helper); !strings.Contains(chain, "func@line") {
		t.Errorf("chain to helper should pass through the literal, got %q", chain)
	}
	directOnly := g.Reach([]*lint.FuncNode{schedule}, lint.EdgeDirect.Mask(), nil)
	if directOnly.Has(helper) {
		t.Error("helper must NOT be direct-reachable from schedule (closure boundary)")
	}

	// Interface dispatch is followed by the full-kind walk...
	fromDispatch := g.Reach([]*lint.FuncNode{dispatch}, lint.AllEdges, nil)
	if !fromDispatch.Has(slowRun) {
		t.Error("(slow).run not reachable from dispatch over iface edges")
	}
	// ...and pruned by a direct-only walk.
	fromDispatchDirect := g.Reach([]*lint.FuncNode{dispatch}, lint.EdgeDirect.Mask(), nil)
	if fromDispatchDirect.Has(slowRun) {
		t.Error("(slow).run must NOT be direct-reachable from dispatch")
	}
}
