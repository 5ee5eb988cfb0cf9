package core

import (
	"strings"
	"testing"
)

func baseIdentity() RunIdentity {
	return RunIdentity{
		Workload: "bitonic", P: 16, H: 4, SimN: 256, PaperN: 512 << 10,
		Scale: 512, Seed: 1, Service: "bypass", Sched: "fifo",
		Config: DefaultConfig(16).Fingerprint(),
	}
}

func TestIdentityHashDeterministic(t *testing.T) {
	a, b := baseIdentity(), baseIdentity()
	if a.Hash() != b.Hash() {
		t.Fatalf("identical identities hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	if len(a.Hash()) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(a.Hash()))
	}
}

func TestIdentityHashSensitivity(t *testing.T) {
	base := baseIdentity()
	mutations := map[string]func(*RunIdentity){
		"workload": func(id *RunIdentity) { id.Workload = "fft" },
		"p":        func(id *RunIdentity) { id.P = 64 },
		"h":        func(id *RunIdentity) { id.H = 8 },
		"simn":     func(id *RunIdentity) { id.SimN = 512 },
		"papern":   func(id *RunIdentity) { id.PaperN = 1 << 20 },
		"scale":    func(id *RunIdentity) { id.Scale = 256 },
		"seed":     func(id *RunIdentity) { id.Seed = 2 },
		"service":  func(id *RunIdentity) { id.Service = "EM-4 EXU" },
		"sched":    func(id *RunIdentity) { id.Sched = "resume-first" },
		"block":    func(id *RunIdentity) { id.BlockRead = true },
		"verify":   func(id *RunIdentity) { id.Verify = true },
		"config":   func(id *RunIdentity) { id.Config = "deadbeef" },
	}
	seen := map[string]string{base.Hash(): "base"}
	for name, mutate := range mutations {
		id := baseIdentity()
		mutate(&id)
		h := id.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutating %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

func TestIdentityCanonicalVersioned(t *testing.T) {
	c := baseIdentity().Canonical()
	if !strings.HasPrefix(c, "emx-run/v1\n") {
		t.Fatalf("canonical encoding not versioned:\n%s", c)
	}
	for _, field := range []string{"workload=bitonic", "p=16", "seed=1", "config="} {
		if !strings.Contains(c, field) {
			t.Errorf("canonical encoding missing %q", field)
		}
	}
}

func TestConfigFingerprintTracksCalibration(t *testing.T) {
	a := DefaultConfig(16)
	b := DefaultConfig(16)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal configs fingerprint differently")
	}
	b.SaveCycles++
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("recalibrated config keeps the old fingerprint")
	}
}

// TestIdentityGolden pins the cache identity. Every run key and cluster
// route derives from these hashes, so a change here invalidates every
// cached result and reroutes every request: it must be a deliberate,
// reviewed edit, never a side effect of reshaping Config.
func TestIdentityGolden(t *testing.T) {
	if got, want := DefaultConfig(64).Fingerprint(), "a6bdacdde44788ed"; got != want {
		t.Errorf("DefaultConfig(64).Fingerprint() = %s, want %s", got, want)
	}
	if got, want := baseIdentity().Hash(), "113e2c4a28f9c1e5df75e18ecb16382b5bc57e41e7e2aea76431acf8ed996be9"; got != want {
		t.Errorf("baseIdentity().Hash() = %s, want %s", got, want)
	}
}
