package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"score/internal/metrics"
	"score/internal/simclock"
)

// mapCursor is the attribution cursor as it stood before the fixed
// array: a map that grows on the first non-zero mark and is copied at
// finish. TestAttribMatchesTheMapCursor holds attrib to it.
type mapCursor struct {
	start, last time.Duration
	comps       map[string]time.Duration
	done        bool
}

func (m *mapCursor) mark(now time.Duration, comp string) {
	if m == nil || m.done {
		return
	}
	if d := now - m.last; d > 0 {
		if m.comps == nil {
			m.comps = map[string]time.Duration{}
		}
		m.comps[comp] += d
	}
	m.last = now
}

func (m *mapCursor) finish(now time.Duration) metrics.CritPathRecord {
	m.done = true
	comps := make(map[string]time.Duration, len(m.comps))
	for k, v := range m.comps {
		comps[k] = v
	}
	return metrics.CritPathRecord{Op: metrics.CritDurable, Version: 7, Start: m.start,
		Total: now - m.start, Components: comps, Unattributed: now - m.last}
}

// TestAttribMatchesTheMapCursor runs seeded random sequences of clock
// advances, marks and finishes through attrib and the map cursor side by
// side. The sequences hold zero-length marks, components charged again
// and again, marks and finishes after a finish, and marks on a nil
// attrib; every record must agree in Components (a non-nil empty map
// included), Total and Unattributed.
func TestAttribMatchesTheMapCursor(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := time.Duration(rng.Intn(1000))
		a := newAttrib(metrics.CritDurable, 7, start)
		m := &mapCursor{start: start, last: start}
		var nilAtt *attrib
		now := start
		for step, steps := 0, rng.Intn(60); step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				now += time.Duration(rng.Intn(4)) // 0 is a zero-length mark to come
			case op < 8:
				// Few components, so most are charged more than once.
				comp := metrics.Comp(rng.Intn(4) * int(metrics.NumComps) / 4)
				a.mark(now, comp)
				m.mark(now, metrics.CompNames[comp])
				nilAtt.mark(now, comp)
			default:
				got, want := recorded(a.finish(now)), m.finish(now)
				if got.Components == nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: attrib finished %+v, map cursor %+v", seed, step, got, want)
				}
			}
		}
		got, want := recorded(a.finish(now)), m.finish(now)
		if got.Components == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: attrib finished %+v, map cursor %+v", seed, got, want)
		}
	}
}

// recorded is the record a Recorder's Snapshot builds from a.
func recorded(a metrics.Attribution) metrics.CritPathRecord {
	r := metrics.NewRecorder()
	r.Attribute(a)
	return r.Snapshot().CritPaths[0]
}

// TestAttribAndRecordAllocateNothing: mark allocates nothing, and
// finishing an attribution and recording it allocates nothing either,
// amortised over testing.AllocsPerRun's runs: the recorder's store grows
// in blocks, not per record.
func TestAttribAndRecordAllocateNothing(t *testing.T) {
	var now time.Duration
	a := newAttrib(metrics.CritRestore, 1, 0)
	if n := testing.AllocsPerRun(100, func() {
		now += time.Millisecond
		a.mark(now, metrics.XferSSD)
		now += time.Millisecond
		a.mark(now, metrics.CopyD2D)
	}); n != 0 {
		t.Errorf("mark allocates %v times, want 0", n)
	}
	r := metrics.NewRecorder()
	if n := testing.AllocsPerRun(100, func() { r.Attribute(a.finish(now)) }); n != 0 {
		t.Errorf("finishing and recording an attribution allocates %v times, want 0", n)
	}
}

// versionAllocCeiling is the committed budget of TestVersionBookkeepingAllocs:
// the measured 1.0 mallocs per version (go1.24, linux/amd64) plus 8%.
// Per-version containers that grew from one element (the records map,
// the hint and flush queues, the caches' fragment lists and maps, the
// restore series and the critical-path store's first blocks) cost 1.9
// before each started at a block. A checkpoint record allocated on its
// own and a virtual payload boxed in an interface cost 3.8. A mutex in
// each attribution, whose Lock took its address and so moved the restore
// path's attribution to the heap, cost 4.8 before that. Its three replica
// records (GPU, host, SSD), one malloc each before they were cut from a
// per-client slab, and its two critical-path records' Components maps,
// two mallocs each before finish returned a fixed array, cost 11.6. A
// machine allocated apart from its record, an attribution allocated apart
// from its checkpoint and refused transitions that format errors cost
// 17.6 before that; the map cursor and a cond per machine cost 24.7 on
// top of a separate machine.
const versionAllocCeiling = 1.1

// chunkedVersionAllocCeiling is the same budget with ChunkSize set: the
// measured 1.3 plus 8%. Containers that grew from one element
// cost 2.2; the checkpoint record and the payload box cost 4.2; the
// attribution's mutex cost 9.0; the same replica records and record maps
// cost 15.8; a stream path composed per stream and span names formatted
// with no tracer to read them cost 23.8 before that.
const chunkedVersionAllocCeiling = 1.4

// TestVersionBookkeepingAllocs budgets what one checkpoint version costs
// the heap: one rank writes 64 virtual versions, waits for the flush
// chain and restores them all, and the mallocs from the first checkpoint
// to the last restore, per version, must stay under the ceiling. A map
// per attribution mark or a cond per life-cycle machine breaks it, and
// so does any string or path built per transfer in the chunked variant.
func TestVersionBookkeepingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, tc := range []struct {
		name    string
		chunk   int64
		ceiling float64
	}{
		{"monolithic", 0, versionAllocCeiling},
		{"chunked", MB / 16, chunkedVersionAllocCeiling},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perVersion := versionMallocs(t, func(p *Params) { p.ChunkSize = tc.chunk })
			t.Logf("%.1f mallocs per version", perVersion)
			if perVersion > tc.ceiling {
				t.Errorf("%.1f mallocs per version, ceiling %.1f", perVersion, tc.ceiling)
			}
		})
	}
}

// versionMallocs is TestVersionBookkeepingAllocs's measurement on a rig
// that mutate configures further.
func versionMallocs(t *testing.T, mutate func(*Params)) float64 {
	const n = 64
	var perVersion float64
	run(t, func(clk *simclock.Virtual) {
		c := newRig(t, clk, func(p *Params) {
			p.GPUCacheSize = 64 * MB
			p.HostCacheSize = 64 * MB
			mutate(p)
		}).client
		defer c.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if err := c.Checkpoint(ID(i), pay(MB/4)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		for i := n - 1; i >= 0; i-- {
			if _, err := c.Restore(ID(i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perVersion = float64(after.Mallocs-before.Mallocs) / n
	})
	return perVersion
}
