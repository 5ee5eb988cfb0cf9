package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"emx/internal/labd"
	"emx/internal/metrics"
)

// TestFigureCSVDeterministicAcrossWorkers proves host-side scheduling
// never leaks into simulated results: the same figure panel rendered
// from sweeps executed with 1 worker and with 8 workers through the
// labd scheduler is byte-identical. Run under -race in CI.
func TestFigureCSVDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) (string, string) {
		t.Helper()
		sched := labd.New(labd.Options{Workers: workers})
		defer sched.Close()
		res, err := smallSweep(Bitonic).RunOn(sched)
		if err != nil {
			t.Fatal(err)
		}
		f6 := Fig6(res)
		f7, err := Fig7(res)
		if err != nil {
			t.Fatal(err)
		}
		return f6.CSV(), f7.CSV()
	}
	csv6a, csv7a := render(1)
	csv6b, csv7b := render(8)
	if csv6a != csv6b {
		t.Fatalf("Fig6 CSV differs between workers=1 and workers=8:\n%s\nvs\n%s", csv6a, csv6b)
	}
	if csv7a != csv7b {
		t.Fatalf("Fig7 CSV differs between workers=1 and workers=8:\n%s\nvs\n%s", csv7a, csv7b)
	}
	if csv6a == "" || csv7a == "" {
		t.Fatal("empty CSV")
	}
}

// goldenPanelHashes pins the exact figure bytes the pre-fast-path
// simulator (the seed revision) produced, rendered exactly as
// `emxbench -format csv -scale 65536 -seed 1` renders them. The
// operation-buffer fast path and the calendar-queue scheduler are pure
// host-side optimizations: any drift in simulated results — event
// ordering, cycle accounting, counters — shows up here as a hash
// mismatch. Regenerate only when a change intentionally alters
// simulated behavior (and say so in the commit).
var goldenPanelHashes = map[string][]struct{ id, sha string }{
	"6a":      {{"fig6-bitonic-P16", "e1f579ef80bf33ade024ff5156156cca73b877902f4a0cbe013effb407c64434"}},
	"model":   {{"xmodel", "ee30f48845af409afe42556e5b27ef9cf93d298585b04dd7f4315e6baee86b49"}},
	"latency": {{"xlatency", "e5bda51eafdd804fea2389523347d4fbef13feebc7e5cf6f591bf333635a0bb3"}},
	"em4": {
		{"xem4-bitonic", "ee53a7212f2ed28a7a4d52507fad80e5149db98ec06ae84b02efe322406b8fcf"},
		{"xem4-fft", "e7811af5a48a20c0a3696433def5f5f6840fdded6e13932c9ca295bcaaf5f837"},
	},
	"irr": {{"xirr", "20816c61bec2762a88612ef8a96af0747b11da8c07339b51a85682c83337a76c"}},
}

func TestFigureGoldenHashes(t *testing.T) {
	heavy := map[string]bool{"em4": true, "irr": true}
	sched := labd.New(labd.Options{})
	defer sched.Close()
	pr := NewPanelRunner(PanelOptions{Scale: 65536, Seed: 1}, sched)
	for _, name := range []string{"6a", "model", "latency", "em4", "irr"} {
		if testing.Short() && heavy[name] {
			continue
		}
		figs, err := pr.Panel(name)
		if err != nil {
			t.Fatalf("panel %s: %v", name, err)
		}
		golds := goldenPanelHashes[name]
		if len(figs) != len(golds) {
			t.Fatalf("panel %s yielded %d figures, want %d", name, len(figs), len(golds))
		}
		for i, f := range figs {
			if f.ID != golds[i].id {
				t.Fatalf("panel %s figure %d is %q, want %q", name, i, f.ID, golds[i].id)
			}
			// Byte-for-byte the emxbench CSV block: header line, CSV, and
			// the println separator.
			blob := fmt.Sprintf("# %s [%s]\n%s\n", f.Title, f.ID, f.CSV())
			sum := sha256.Sum256([]byte(blob))
			if got := hex.EncodeToString(sum[:]); got != golds[i].sha {
				t.Errorf("panel %s figure %s: hash %s, want %s\nsimulated results drifted from the seed:\n%s",
					name, f.ID, got, golds[i].sha, blob)
			}
		}
	}
}

// TestSpillPathDeterministicAcrossWorkers forces packet-queue spills
// (16 threads per PE overflow the 8-slot on-chip FIFOs) and proves the
// spill/restore dispatch path stays deterministic under the
// operation-buffer fast path: every simulated measurement — FIFO
// dispatch counts, spill counters, the full breakdown — is identical
// whether the grid runs on 1 or 8 host workers.
func TestSpillPathDeterministicAcrossWorkers(t *testing.T) {
	spillSweep := Sweep{
		Workload:   Bitonic,
		P:          4,
		PaperSizes: []int{256 * K},
		Scale:      1024,
		Threads:    []int{8, 16},
		Seed:       7,
	}
	grid := func(workers int) *SweepResult {
		t.Helper()
		res, err := spillSweep.Run(workers)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := grid(1), grid(8)
	var spills uint64
	for si := range a.Runs {
		for hi := range a.Runs[si] {
			ra, rb := a.Runs[si][hi], b.Runs[si][hi]
			// Host timing is the one legitimately non-deterministic field.
			ra.HostElapsedSecs, rb.HostElapsedSecs = 0, 0
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("cell (%d,%d) differs between workers=1 and workers=8:\n%+v\nvs\n%+v", si, hi, ra, rb)
			}
			spills += ra.SumCounter(func(pe *metrics.PE) uint64 { return pe.Spills })
		}
	}
	if spills == 0 {
		t.Fatal("sweep produced no packet-queue spills; the test no longer exercises the spill path")
	}
}

// TestSweepRunMatchesRunOn: the convenience Run(workers) path and an
// explicit scheduler produce identical grids.
func TestSweepRunMatchesRunOn(t *testing.T) {
	a, err := smallSweep(FFT).Run(2)
	if err != nil {
		t.Fatal(err)
	}
	sched := labd.New(labd.Options{Workers: 2})
	defer sched.Close()
	b, err := smallSweep(FFT).RunOn(sched)
	if err != nil {
		t.Fatal(err)
	}
	for si := range a.Runs {
		for hi := range a.Runs[si] {
			if a.Runs[si][hi].Makespan != b.Runs[si][hi].Makespan {
				t.Fatalf("cell (%d,%d) differs between Run and RunOn", si, hi)
			}
		}
	}
}

// TestSweepCoalescesDuplicatePoints: a sweep whose grid degenerates to
// identical points (clamped sizes) executes each unique point once when
// run through a caching scheduler.
func TestSweepCoalescesDuplicatePoints(t *testing.T) {
	sched := labd.New(labd.Options{Workers: 4})
	defer sched.Close()
	s := Sweep{
		Workload:   Bitonic,
		P:          4,
		PaperSizes: []int{64 * K, 64 * K}, // two identical size rows
		Scale:      1 << 20,
		Threads:    []int{1, 2},
		Seed:       3,
	}
	res, err := s.RunOn(sched)
	if err != nil {
		t.Fatal(err)
	}
	// 4 grid cells, but only 2 unique (size rows collapse): the
	// scheduler must have executed exactly 2 simulations.
	st := sched.Stats()
	if st.Started != 2 {
		t.Fatalf("started %d simulations for 2 unique points", st.Started)
	}
	if st.CacheHits+st.Coalesced != 2 {
		t.Fatalf("expected 2 deduplicated cells, got hits=%d coalesced=%d", st.CacheHits, st.Coalesced)
	}
	if res.Runs[0][0].Makespan != res.Runs[1][0].Makespan {
		t.Fatal("identical points produced different results")
	}
}

func TestPointSpecKeyStable(t *testing.T) {
	ps := Sweep{Workload: FFT, P: 4, PaperSizes: []int{64 * K}, Scale: 512, Threads: []int{2}, Seed: 1}.
		withDefaults().Point(0, 0)
	if ps.Key(512) != ps.Key(512) {
		t.Fatal("key not deterministic")
	}
	if ps.Key(512) == ps.Key(256) {
		t.Fatal("scale not part of the identity")
	}
	other := ps
	other.Seed = 2
	if ps.Key(512) == other.Key(512) {
		t.Fatal("seed not part of the identity")
	}
	// The golden key pins the whole PointSpec -> Config -> RunIdentity
	// chain: changing it reroutes and invalidates every cached run.
	if got, want := ps.Key(512), "e809b688b003cdb4df6c4333ae3fa7aaebbc2fa5af5727022764257ec751d94f"; got != want {
		t.Errorf("ps.Key(512) = %s, want %s", got, want)
	}
}
