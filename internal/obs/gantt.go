package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// runKey identifies one thread track: a (PE, frame) pair.
type runKey struct {
	pe    int32
	frame uint32
}

// openRun is a run interval still open on one thread track.
type openRun struct {
	runKey
	since int64
}

// runTracker reconstructs thread run intervals from CatThread events —
// the one place the rule lives: start and run put a thread on the EXU
// and open its run interval; read, yield and end take it off and close
// the interval.
type runTracker map[runKey]int64

// step applies one CatThread event. off reports whether ev takes the
// thread off the EXU; when that closes an open interval, ran is true and
// since is the interval's start. A close with no open interval (its
// opener was evicted from the ring) reports off without ran.
func (rt runTracker) step(ev Event) (since int64, ran, off bool) {
	k := runKey{ev.PE, uint32(ev.A)}
	switch ThreadKind(ev.Code) {
	case ThreadStart, ThreadRun:
		rt[k] = ev.At
		return 0, false, false
	}
	since, ran = rt[k]
	delete(rt, k)
	return since, ran, true
}

// left returns the intervals still open, in (PE, frame) order — map
// iteration order must never reach an exporter's output.
func (rt runTracker) left() []openRun {
	out := make([]openRun, 0, len(rt))
	for k, since := range rt {
		out = append(out, openRun{k, since})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j].runKey) })
	return out
}

func (k runKey) less(o runKey) bool {
	if k.pe != o.pe {
		return k.pe < o.pe
	}
	return k.frame < o.frame
}

// Interval is one run interval of a thread: it held the EXU from From
// to To.
type Interval struct {
	From, To int64
}

// Timeline is one thread's band in a Figure 4/5 diagram.
type Timeline struct {
	PE    int32
	Frame uint32
	Name  string
	// Runs are the thread's run intervals, oldest first.
	Runs []Interval
	// End is when the thread last left the EXU.
	End int64
}

// Timelines reconstructs per-thread bands from the CatThread events of
// one run, ordered by (PE, frame). Each band takes the first name
// recorded for its (PE, frame); events of other categories are ignored.
func Timelines(events []Event, names []NameEntry) []Timeline {
	byThread := map[runKey]*Timeline{}
	runs := runTracker{}
	for _, ev := range events {
		if ev.Cat != CatThread {
			continue
		}
		k := runKey{ev.PE, uint32(ev.A)}
		tl := byThread[k]
		if tl == nil {
			tl = &Timeline{PE: ev.PE, Frame: k.frame}
			byThread[k] = tl
		}
		since, ran, off := runs.step(ev)
		if ran {
			tl.Runs = append(tl.Runs, Interval{From: since, To: ev.At})
		}
		if off {
			tl.End = ev.At
		}
	}
	// Walk the names backwards so a reused frame keeps its first name.
	for i := len(names) - 1; i >= 0; i-- {
		n := names[i]
		if tl := byThread[runKey{n.PE, n.Frame}]; tl != nil {
			tl.Name = n.Name
		}
	}
	out := make([]Timeline, 0, len(byThread))
	for _, tl := range byThread {
		out = append(out, *tl)
	}
	sort.Slice(out, func(i, j int) bool {
		return runKey{out[i].PE, out[i].Frame}.less(runKey{out[j].PE, out[j].Frame})
	})
	return out
}

// ganttWidth is the timeline width in columns.
const ganttWidth = 100

// WriteGantt renders the CatThread events of one run as the paper's
// Figure 4/5 diagram — one text band per thread, '=' while it runs on
// the EXU, '.' while it is suspended or queued, ' ' before its first run
// and after its last — followed by per-PE lifecycle counts.
func WriteGantt(w io.Writer, events []Event, names []NameEntry) error {
	var b strings.Builder
	writeBands(&b, Timelines(events, names))
	b.WriteString("\n")
	writeLifecycleCounts(&b, events)
	_, err := io.WriteString(w, b.String())
	return err
}

func writeBands(b *strings.Builder, tls []Timeline) {
	if len(tls) == 0 {
		b.WriteString("(no trace events)\n")
		return
	}
	var horizon int64
	labelW := 0
	for _, tl := range tls {
		horizon = max(horizon, tl.End)
		labelW = max(labelW, len(bandLabel(tl)))
	}
	if horizon == 0 {
		horizon = 1
	}
	fmt.Fprintf(b, "time: 0 .. %d cycles (%.2f us), one column = %.1f cycles\n",
		horizon, cyclesMicros(horizon), float64(horizon)/ganttWidth)
	col := func(t int64) int { return min(int(t*ganttWidth/horizon), ganttWidth-1) }
	row := make([]byte, ganttWidth)
	for _, tl := range tls {
		for i := range row {
			row[i] = ' '
		}
		first := int64(0)
		if len(tl.Runs) > 0 {
			first = tl.Runs[0].From
		}
		for c := col(first); c <= col(tl.End); c++ {
			row[c] = '.'
		}
		for _, iv := range tl.Runs {
			for c := col(iv.From); c <= col(iv.To); c++ {
				row[c] = '='
			}
		}
		fmt.Fprintf(b, "%-*s |%s|\n", labelW, bandLabel(tl), row)
	}
	b.WriteString("legend: '=' running   '.' suspended/queued   ' ' inactive\n")
}

func bandLabel(tl Timeline) string { return fmt.Sprintf("PE%d %s", tl.PE, tl.Name) }

// writeLifecycleCounts writes one line of lifecycle transition counts
// per PE that has any.
func writeLifecycleCounts(b *strings.Builder, events []Event) {
	counts := map[int32]*[NumThreadKinds]int{}
	var pes []int32
	for _, ev := range events {
		if ev.Cat != CatThread {
			continue
		}
		c := counts[ev.PE]
		if c == nil {
			c = new([NumThreadKinds]int)
			counts[ev.PE] = c
			pes = append(pes, ev.PE)
		}
		c[ev.Code]++
	}
	sort.Slice(pes, func(i, j int) bool { return pes[i] < pes[j] })
	for _, pe := range pes {
		c := counts[pe]
		fmt.Fprintf(b, "PE%d: %d starts, %d resumes, %d reads, %d yields, %d ends\n",
			pe, c[ThreadStart], c[ThreadRun], c[ThreadRead], c[ThreadYield], c[ThreadEnd])
	}
}
