package obs_test

import (
	"strings"
	"testing"

	"emx/internal/core"
	"emx/internal/obs"
	"emx/internal/packet"
)

// runObserved reproduces the paper's Figure 4 setup with a tracer
// attached: two PEs, two threads each, reading from the mate and
// computing.
func runObserved(t *testing.T) *obs.Tracer {
	t.Helper()
	cfg := core.DefaultConfig(2)
	cfg.MemWords = 1 << 10
	cfg.MaxCycles = 1_000_000
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(obs.Options{P: 2, Retain: obs.MaskOf(obs.CatThread)})
	m.SetObs(tr)
	for pe := packet.PE(0); pe < 2; pe++ {
		for th := 0; th < 2; th++ {
			m.SpawnAt(pe, "thd", packet.Word(th), func(tc *core.TC) {
				mate := 1 - pe
				for k := 0; k < 4; k++ {
					tc.Read(packet.GlobalAddr{PE: mate, Off: uint32(th*4 + k)})
					tc.Compute(15)
				}
			})
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func gantt(t *testing.T, events []obs.Event, names []obs.NameEntry) string {
	t.Helper()
	var b strings.Builder
	if err := obs.WriteGantt(&b, events, names); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestThreadEventsCaptureLifecycle(t *testing.T) {
	tr := runObserved(t)
	var kinds [obs.NumThreadKinds]int
	evs := tr.Events()
	for i, ev := range evs {
		if ev.Cat != obs.CatThread {
			t.Fatalf("retained a %v event under a thread-only mask", ev.Cat)
		}
		kinds[ev.Code]++
		if i > 0 && ev.At < evs[i-1].At {
			t.Fatal("events out of order")
		}
	}
	if kinds[obs.ThreadStart] != 4 || kinds[obs.ThreadEnd] != 4 {
		t.Fatalf("starts=%d ends=%d, want 4,4", kinds[obs.ThreadStart], kinds[obs.ThreadEnd])
	}
	if kinds[obs.ThreadRead] != 16 {
		t.Fatalf("read issues = %d, want 16", kinds[obs.ThreadRead])
	}
	if kinds[obs.ThreadRun] != kinds[obs.ThreadRead] {
		t.Fatalf("resumes = %d, want %d (one per read)", kinds[obs.ThreadRun], kinds[obs.ThreadRead])
	}
	if d := tr.Profile().TotalDropped(); d != 0 {
		t.Fatalf("dropped %d events with default capacity", d)
	}
}

func TestTimelinesAlternateRunSuspend(t *testing.T) {
	tr := runObserved(t)
	tls := obs.Timelines(tr.Events(), tr.Names())
	if len(tls) != 4 {
		t.Fatalf("timelines = %d, want 4", len(tls))
	}
	for _, tl := range tls {
		if tl.Name != "thd" {
			t.Fatalf("PE%d frame %d named %q, want thd", tl.PE, tl.Frame, tl.Name)
		}
		// 1 start + 4 reads -> 5 running intervals per thread.
		if len(tl.Runs) != 5 {
			t.Fatalf("%s PE%d: %d intervals, want 5", tl.Name, tl.PE, len(tl.Runs))
		}
		for i, iv := range tl.Runs {
			if iv.To < iv.From {
				t.Fatalf("interval %d inverted: %+v", i, iv)
			}
			if i > 0 && iv.From < tl.Runs[i-1].To {
				t.Fatalf("intervals overlap: %+v then %+v", tl.Runs[i-1], iv)
			}
		}
		if last := tl.Runs[len(tl.Runs)-1]; tl.End != last.To {
			t.Fatalf("end %d, want the last interval's close %d", tl.End, last.To)
		}
	}
}

func TestNoTwoThreadsRunConcurrentlyOnOnePE(t *testing.T) {
	// The EXU runs one thread at a time: running intervals of threads on
	// the same PE must not overlap.
	tr := runObserved(t)
	tls := obs.Timelines(tr.Events(), tr.Names())
	for i := range tls {
		for j := i + 1; j < len(tls); j++ {
			if tls[i].PE != tls[j].PE {
				continue
			}
			for _, a := range tls[i].Runs {
				for _, b := range tls[j].Runs {
					if a.From < b.To && b.From < a.To {
						t.Fatalf("PE%d: overlap %+v and %+v", tls[i].PE, a, b)
					}
				}
			}
		}
	}
}

// TestTimelinesFirstNameWins: a frame reused by a later thread keeps the
// name of the first thread recorded for it.
func TestTimelinesFirstNameWins(t *testing.T) {
	tr := obs.New(obs.Options{P: 1})
	tr.ThreadName(0, 3, "first")
	tr.Thread(0, 0, obs.ThreadStart, 3)
	tr.Thread(10, 0, obs.ThreadEnd, 3)
	tr.ThreadName(0, 3, "second")
	tr.Thread(20, 0, obs.ThreadStart, 3)
	tr.Thread(30, 0, obs.ThreadEnd, 3)
	tls := obs.Timelines(tr.Events(), tr.Names())
	if len(tls) != 1 || tls[0].Name != "first" || len(tls[0].Runs) != 2 || tls[0].End != 30 {
		t.Fatalf("timelines = %+v, want one band \"first\" with 2 runs ending at 30", tls)
	}
}

func TestGanttRendering(t *testing.T) {
	tr := runObserved(t)
	g := gantt(t, tr.Events(), tr.Names())
	if !strings.Contains(g, "PE0 thd") || !strings.Contains(g, "PE1 thd") {
		t.Fatalf("gantt missing thread rows:\n%s", g)
	}
	if !strings.Contains(g, "=") || !strings.Contains(g, "legend") {
		t.Fatalf("gantt missing bands:\n%s", g)
	}
	bands, _, _ := strings.Cut(g, "\n\n")
	if lines := strings.Split(bands, "\n"); len(lines) != 6 { // header + 4 threads + legend
		t.Fatalf("gantt has %d band lines:\n%s", len(lines), g)
	}
}

func TestGanttEmpty(t *testing.T) {
	if g := gantt(t, nil, nil); !strings.Contains(g, "no trace events") {
		t.Fatalf("empty event stream should say so:\n%s", g)
	}
}

func TestGanttSummary(t *testing.T) {
	tr := runObserved(t)
	_, s, _ := strings.Cut(gantt(t, tr.Events(), tr.Names()), "\n\n")
	if !strings.Contains(s, "PE0:") || !strings.Contains(s, "PE1:") {
		t.Fatalf("summary:\n%s", s)
	}
	if !strings.Contains(s, "8 reads") {
		t.Fatalf("summary read counts wrong:\n%s", s)
	}
}
