package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fig4Args is the paper's Figure 4 scenario: bitonic sorting on two
// processors, two threads each, eight elements.
var fig4Args = []string{"-workload", "bitonic", "-p", "2", "-n", "8", "-h", "2", "-seed", "7"}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFigure4ReportGolden pins the text report for the Figure-4 scenario
// byte-for-byte. A diff here means the cost model or the report format
// changed — both are intentional, reviewable events.
func TestFigure4ReportGolden(t *testing.T) {
	code, out, errOut := runCLI(t, fig4Args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if want := golden(t, "fig4.report.txt"); out != want {
		t.Errorf("report drifted from golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestFigure4PerfettoGolden pins the trace-event JSON byte-for-byte and
// checks it is well-formed for ui.perfetto.dev.
func TestFigure4PerfettoGolden(t *testing.T) {
	code, out, errOut := runCLI(t, append(fig4Args, "-format", "perfetto")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if want := golden(t, "fig4.trace.json"); out != want {
		t.Error("perfetto trace drifted from golden")
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		Events          []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" || len(doc.Events) == 0 {
		t.Fatalf("bad trace document: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.Events))
	}
}

// TestFigure4GanttGolden pins the default -format gantt output — the
// paper's Figure 4 picture (bitonic, P=2, h=2, 8 elements, seed 7) —
// byte-for-byte. A diff here means the machine timing changed, which is
// a simulator change, not noise.
func TestFigure4GanttGolden(t *testing.T) {
	code, out, errOut := runCLI(t, "-format", "gantt")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if want := golden(t, "fig4.gantt.txt"); out != want {
		t.Errorf("timeline drifted from golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

func TestGanttIsDeterministic(t *testing.T) {
	args := []string{"-workload", "fft", "-p", "4", "-n", "16", "-format", "gantt"}
	_, first, _ := runCLI(t, args...)
	_, second, _ := runCLI(t, args...)
	if first == "" || first != second {
		t.Fatal("fft timeline not reproducible across runs")
	}
	if !strings.HasPrefix(first, "fft: P=4, n=16, h=2 — thread timelines") {
		t.Fatalf("header missing:\n%s", first)
	}
}

func TestGanttEveryWorkload(t *testing.T) {
	for _, w := range []string{"bitonic", "fft", "spmv"} {
		code, out, errOut := runCLI(t, "-workload", w, "-n", "16", "-format", "gantt")
		if code != 0 {
			t.Errorf("%s: exit %d:\n%s", w, code, errOut)
			continue
		}
		for _, want := range []string{"legend:", "PE0", "starts", "one column"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", w, want, out)
			}
		}
		if strings.Contains(out, "dropped=") {
			t.Errorf("%s: default capacity dropped thread events:\n%s", w, out)
		}
	}
}

// TestGanttReportsDrops: a ring too small for the run's 44 lifecycle
// events loses the oldest 28, and the output must say so instead of
// presenting the truncated picture as complete.
func TestGanttReportsDrops(t *testing.T) {
	code, out, errOut := runCLI(t, "-format", "gantt", "-capacity", "16")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "dropped=28 ") || !strings.Contains(last, "-capacity") {
		t.Fatalf("last line %q, want a dropped=28 warning naming -capacity", last)
	}
}

func TestProfileJSONRoundTripsThroughDiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.prof")
	b := filepath.Join(dir, "b.prof")
	if code, _, errOut := runCLI(t, append(fig4Args, "-format", "json", "-o", a)...); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	args := append([]string{"-workload", "bitonic", "-p", "2", "-n", "16", "-h", "2", "-seed", "7"}, "-format", "json", "-o", b)
	if code, _, errOut := runCLI(t, args...); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	code, out, errOut := runCLI(t, "-diff", a, b)
	if code != 0 {
		t.Fatalf("diff exit %d: %s", code, errOut)
	}
	for _, want := range []string{"emxprof profile diff (A -> B", "makespan", "run"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // in the diagnostic, when set
	}{
		{"unknown workload", []string{"-workload", "quicksort"}, `unknown workload "quicksort" (want bitonic, fft, or spmv)`},
		{"unknown format", []string{"-format", "flamegraph"}, `unknown format "flamegraph" (want report, json, perfetto, or gantt)`},
		{"unknown figure", []string{"-fig", "99z"}, ""},
		{"unknown mode", []string{"-mode", "warp"}, ""},
		{"bad p", []string{"-p", "0"}, ""},
		{"gantt of a panel", []string{"-fig", "6a", "-format", "gantt"}, "cannot be combined with -fig"},
		{"negative slice", []string{"-slice", "-5"}, ""},
		{"negative workers", []string{"-fig", "6a", "-workers", "-1"}, ""},
		{"bad scale", []string{"-fig", "6a", "-scale", "0"}, ""},
		{"diff arity", []string{"-diff", "only-one.prof"}, ""},
		{"stray args", []string{"a.prof", "b.prof"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errOut)
			}
			if errOut == "" || !strings.Contains(errOut, tc.want) {
				t.Fatalf("diagnostic %q, want it to contain %q", errOut, tc.want)
			}
			if out != "" {
				t.Fatalf("wrote to stdout despite failing:\n%s", out)
			}
		})
	}
}

// TestInvalidFlagValuesExitNonZero: every bad point-mode value is
// rejected with exit 2, a diagnostic and nothing on stdout, whatever the
// output format.
func TestInvalidFlagValuesExitNonZero(t *testing.T) {
	cases := [][]string{
		{"-workload", "quicksort"},
		{"-p", "0"},
		{"-n", "0"},
		{"-h", "-1"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		for _, format := range []string{"report", "gantt"} {
			args := append(append([]string(nil), args...), "-format", format)
			code, stdout, stderr := runCLI(t, args...)
			if code != 2 {
				t.Errorf("args %v: exit %d, want 2", args, code)
			}
			if stdout != "" {
				t.Errorf("args %v wrote to stdout despite failing:\n%s", args, stdout)
			}
			if stderr == "" {
				t.Errorf("args %v rejected silently", args)
			}
		}
	}
}

// TestUnknownWorkloadMessage: the gantt path echoes a bad workload and
// lists the valid ones, like the report path.
func TestUnknownWorkloadMessage(t *testing.T) {
	_, _, stderr := runCLI(t, "-workload", "quicksort", "-format", "gantt")
	if !strings.Contains(stderr, `unknown workload "quicksort"`) ||
		!strings.Contains(stderr, "bitonic") {
		t.Fatalf("error must echo the bad value and list workloads:\n%s", stderr)
	}
}

// TestPerfettoFormat: -format perfetto names each process after the run
// and is byte-identical across invocations.
func TestPerfettoFormat(t *testing.T) {
	code, first, stderr := runCLI(t, "-format", "perfetto")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	if !strings.Contains(first, "bitonic P=2 n=8 h=2") {
		t.Error("trace missing the run label in process names")
	}
	_, second, _ := runCLI(t, "-format", "perfetto")
	if first != second {
		t.Fatal("perfetto trace not byte-identical across runs")
	}
}

// TestUnknownFormatRejected: a bad -format is refused before any run,
// in point and panel mode alike.
func TestUnknownFormatRejected(t *testing.T) {
	for _, args := range [][]string{{"-format", "svg"}, {"-fig", "6a", "-format", "svg"}} {
		code, stdout, stderr := runCLI(t, args...)
		if code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
		if stdout != "" {
			t.Fatalf("args %v wrote stdout despite failing:\n%s", args, stdout)
		}
		if !strings.Contains(stderr, `unknown format "svg"`) {
			t.Fatalf("args %v: error must echo the bad format:\n%s", args, stderr)
		}
	}
}

// TestReportWorkerInvariantPanel: the merged panel profile is identical
// on 1 and 4 workers — the profiler's headline determinism claim, here
// end to end through the CLI.
func TestReportWorkerInvariantPanel(t *testing.T) {
	args := func(workers string) []string {
		return []string{"-fig", "6a", "-scale", "1048576", "-workers", workers}
	}
	code, one, errOut := runCLI(t, args("1")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	code, four, errOut := runCLI(t, args("4")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if one != four {
		t.Error("panel report differs between -workers 1 and -workers 4")
	}
	if !strings.Contains(one, "dropped=0") {
		t.Errorf("panel report should record zero drops:\n%s", one)
	}
}

// TestPanelSeedDefault: panel mode profiles the sweep emxbench -fig
// draws, which uses seed 1, not point mode's default of 7.
func TestPanelSeedDefault(t *testing.T) {
	panel := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-fig", "6a", "-scale", "1048576", "-format", "json"}, extra...)
		code, out, errOut := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errOut)
		}
		return out
	}
	def := panel()
	if def != panel("-seed", "1") {
		t.Error("-fig 6a profile differs from -fig 6a -seed 1")
	}
	if def == panel("-seed", "7") {
		t.Error("-fig 6a profile equals -fig 6a -seed 7: the panel default is point mode's seed")
	}
}
