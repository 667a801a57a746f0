package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"score"
)

// The harness span recorder: spans are recorded in bench code around
// each public call (spans inside the library are a later change), kept
// in memory, and written out when the traced run ends.

type spanKind uint8

const (
	spanWorkload spanKind = iota
	spanShot
	spanNewClient
	spanPrefetchEnqueue
	spanCheckpoint
	spanWaitFlush
	spanRestart
	spanMetricsSummary
	spanClose
	spanWriteTrace
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"workload", "shot", "api.new_client", "api.prefetch_enqueue", "api.checkpoint",
	"api.wait_flush", "api.restart", "api.metrics_summary", "api.close", "api.write_trace",
}

// span is one timed interval. Parent chains run workload → shot → call;
// Rank and Version are -1 where they do not apply. Wall times are
// nanoseconds since the recorder started, sim times simulated
// nanoseconds since the shot's Sim started.
type span struct {
	ID, Parent         int32
	Kind               spanKind
	Rank               int32
	Version            int64
	WallStart, WallEnd int64
	SimStart, SimEnd   int64
}

type recorder struct {
	t0    time.Time
	next  atomic.Int32
	lanes []*lane
}

// lane is one writer's span list: lane 0 belongs to the harness, lane
// r+1 to rank r, so ranks running in the same simulated instant never
// share a slice. A nil *lane records nothing, which is how untraced
// runs pay only a nil check per call.
type lane struct {
	rec   *recorder
	rank  int32
	spans []span
}

// newRecorder sizes every lane for perLane spans up front, so that
// recording a span is two clock reads and a store, never a reallocation
// inside the traced shot.
func newRecorder(ranks, perLane int) *recorder {
	r := &recorder{t0: time.Now(), lanes: make([]*lane, ranks+1)}
	for i := range r.lanes {
		r.lanes[i] = &lane{rec: r, rank: int32(i - 1), spans: make([]span, 0, perLane)}
	}
	return r
}

func (r *recorder) harness() *lane {
	if r == nil {
		return nil
	}
	return r.lanes[0]
}

func (r *recorder) rank(i int) *lane {
	if r == nil {
		return nil
	}
	return r.lanes[i+1]
}

// mark is an open span: its ID is allocated up front so children can
// name it as their parent before it closes.
type mark struct {
	id        int32
	wall, sim int64
}

func (l *lane) begin(clk score.Clock) mark {
	if l == nil {
		return mark{}
	}
	m := mark{id: l.rec.next.Add(1), wall: int64(time.Since(l.rec.t0))}
	if clk != nil {
		m.sim = int64(clk.Now())
	}
	return m
}

func (l *lane) end(kind spanKind, version int64, parent int32, m mark, clk score.Clock) {
	if l == nil {
		return
	}
	s := span{ID: m.id, Parent: parent, Kind: kind, Rank: l.rank, Version: version,
		WallStart: m.wall, WallEnd: int64(time.Since(l.rec.t0)), SimStart: m.sim, SimEnd: m.sim}
	if clk != nil {
		s.SimEnd = int64(clk.Now())
	}
	l.spans = append(l.spans, s)
}

// all returns every recorded span ordered by wall start.
func (r *recorder) all() []span {
	var out []span
	for _, l := range r.lanes {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallStart != out[j].WallStart {
			return out[i].WallStart < out[j].WallStart
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other (ranks run side by side under
// one shot span), so the cover is the union of their intervals clipped
// to the parent.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		if c[0] < start {
			c[0] = start
		}
		if c[1] > end {
			c[1] = end
		}
		if c[1] > c[0] {
			iv = append(iv, c)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, upto int64 = 0, start
	for _, c := range iv {
		if c[0] > upto {
			upto = c[0]
		}
		if c[1] > upto {
			covered += c[1] - upto
			upto = c[1]
		}
	}
	return end - start - covered
}

// shotSelfWall sums, over every shot span, the wall time no API call
// span covers: the harness's own share of a traced shot.
func shotSelfWall(spans []span) (self, total int64) {
	children := map[int32][][2]int64{}
	for _, s := range spans {
		if s.Kind > spanShot {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.WallStart, s.WallEnd})
		}
	}
	for _, s := range spans {
		if s.Kind == spanShot {
			self += selfTime(s.WallStart, s.WallEnd, children[s.ID])
			total += s.WallEnd - s.WallStart
		}
	}
	return self, total
}

// writeSpans writes the span file: a header naming the columns, then
// one compact row per span (a 512-rank traced run records ~250k).
func writeSpans(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"schema\":\"scorebench-spans/v1\",\"workload\":%q,\n", workload)
	fmt.Fprintf(w, "\"columns\":[\"id\",\"parent\",\"name\",\"rank\",\"version\",\"wall_start_ns\",\"wall_end_ns\",\"sim_start_ns\",\"sim_end_ns\"],\n\"spans\":[\n")
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%d,%q,%d,%d,%d,%d,%d,%d]%s\n", s.ID, s.Parent, spanNames[s.Kind],
			s.Rank, s.Version, s.WallStart, s.WallEnd, s.SimStart, s.SimEnd, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
