package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares the metrics the
// command prints; the two lists must agree name for name and unit for
// unit.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("workloads %v, want %v", names, workloads)
	}
	for i := range names {
		if i < len(workloads) && names[i] != workloads[i] {
			t.Errorf("workload %d is %q, want %q", i, names[i], workloads[i])
		}
	}
	for _, tc := range []struct {
		kind string
		file []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		if len(tc.file) != len(tc.code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the command", tc.kind, len(tc.file), len(tc.code))
			continue
		}
		for i, m := range tc.file {
			if m.Name != tc.code[i].name || m.Unit != tc.code[i].unit {
				t.Errorf("%s %d: file %s [%s], command %s [%s]", tc.kind, i, m.Name, m.Unit, tc.code[i].name, tc.code[i].unit)
			}
		}
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := parseConfig([]string{"--workload", "serve-hot", "--seed", "7", "--seconds", "3", "--trace", "1"}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workload != "serve-hot" || cfg.seed != 7 || cfg.seconds.Seconds() != 3 || !cfg.trace {
		t.Errorf("parsed %+v", cfg)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-p64", "--trace", "2"},
		{"--workload", "sim-p64", "--seconds", "0"},
	} {
		if _, err := parseConfig(bad, os.Stderr); err == nil {
			t.Errorf("parseConfig(%v) accepted", bad)
		}
	}
}
