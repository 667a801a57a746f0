package trace

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"score/internal/metrics"
	"score/internal/simclock"
)

// sampleEvery is the cadence of the samplers these tests feed tracers from.
const sampleEvery = time.Microsecond

// runSampled runs body as the root task of a virtual clock with a sampler
// on it (series capacity capacity, 0 for the default) whose samples tr's
// counter tracks show. The sampler ticks every sampleEvery from the
// start and body starts half a tick in, so sleeping n ticks lets exactly
// n more be taken, and half a tick more stops at a tick's instant after
// its sample. The sampler is stopped when body returns, with a final
// sample, unless body stopped it.
func runSampled(tr *Tracer, capacity int, body func(s *metrics.Sampler, clk *simclock.Virtual)) *metrics.Sampler {
	clk := simclock.NewVirtual()
	s := metrics.NewSampler(clk, sampleEvery, capacity)
	tr.SetCounterSource(s)
	clk.Run(func() {
		s.Start()
		defer s.Stop()
		clk.Sleep(sampleEvery / 2)
		body(s, clk)
	})
	return s
}

// ticks lets n sampler ticks happen.
func ticks(clk *simclock.Virtual, n int) { clk.Sleep(time.Duration(n) * sampleEvery) }

// counterEvent is one counter sample as the export writes it.
type counterEvent struct {
	Name  string
	At    time.Duration
	Value float64
}

// counterEvents returns tr's counter samples in export order.
func counterEvents(tr *Tracer) []counterEvent {
	var out []counterEvent
	if tr != nil && tr.counters != nil {
		tr.counters.EachCounter(func(_ int, name string, at time.Duration, v float64) {
			out = append(out, counterEvent{name, at, v})
		})
	}
	return out
}

// ringModel is the counter store as the tracer kept it while a sink
// mirrored every sample into it: each sample pushed into a bounded ring
// in arrival order, the name interned, the ring sorted on export and
// checked for NaN and ±Inf in arrival order. Beside it, the sampler's
// series as they were kept then, one bounded ring per name.
type ringModel struct {
	counters  blockRing[modelSample]
	names     []string
	nameIDs   map[string]uint32
	series    map[string]*blockRing[metrics.Sample]
	seriesCap int
}

type modelSample struct {
	At    time.Duration
	Value float64
	GPU   int32
	name  uint32
}

func newRingModel(counterCap, seriesCap int) *ringModel {
	m := &ringModel{nameIDs: map[string]uint32{}, series: map[string]*blockRing[metrics.Sample]{}, seriesCap: seriesCap}
	m.counters.limit = counterCap
	return m
}

// register is the model's side of Sampler.Register.
func (m *ringModel) register(name string) {
	if m.series[name] == nil {
		m.series[name] = &blockRing[metrics.Sample]{limit: m.seriesCap}
	}
}

// add is the model's side of one polled sample.
func (m *ringModel) add(name string, at time.Duration, v float64) {
	m.series[name].push(metrics.Sample{At: at, Value: v})
	id, ok := m.nameIDs[name]
	if !ok {
		id, m.names = uint32(len(m.names)), append(m.names, name)
		m.nameIDs[name] = id
	}
	m.counters.push(modelSample{At: at, Value: v, name: id})
}

func (m *ringModel) compare(a, b modelSample) int {
	if c := cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.GPU, b.GPU)); c != 0 {
		return c
	}
	if a.name != b.name {
		return strings.Compare(m.names[a.name], m.names[b.name])
	}
	switch {
	case a.Value < b.Value:
		return -1
	case b.Value < a.Value:
		return +1
	case a.Value == 0 && b.Value == 0:
		return cmp.Compare(math.Float64bits(b.Value), math.Float64bits(a.Value))
	}
	return 0
}

// export returns the counter samples in export order, or the error the
// export reports.
func (m *ringModel) export() ([]counterEvent, error) {
	held := make([]modelSample, m.counters.n)
	for i := range held {
		held[i] = *m.counters.nth(i)
		if v := held[i].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	slices.SortFunc(held, m.compare)
	out := make([]counterEvent, len(held))
	for i, c := range held {
		out[i] = counterEvent{m.names[c.name], c.At, c.Value}
	}
	return out, nil
}

func (m *ringModel) seriesView() map[string][]metrics.Sample {
	out := map[string][]metrics.Sample{}
	for name, r := range m.series {
		out[name] = make([]metrics.Sample, r.n)
		for i := range out[name] {
			out[name][i] = *r.nth(i)
		}
	}
	return out
}

// sameSeries compares two series views bit for bit (NaN included).
func sameSeries(a, b map[string][]metrics.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for name, as := range a {
		bs, ok := b[name]
		if !ok || !slices.EqualFunc(as, bs, func(x, y metrics.Sample) bool {
			return x.At == y.At && math.Float64bits(x.Value) == math.Float64bits(y.Value)
		}) {
			return false
		}
	}
	return true
}

// sampledShape is one run of the differential test.
type sampledShape struct {
	names       []string // one probe each, in registration order
	late        []int    // the tick before which each probe registers (0: before Start)
	ticks       int
	finalAtTick bool // Stop at a tick's instant, after its sample
	seriesCap   int
	counterCap  int
	spans       int // spans recorded, under an event cap of half as many
	value       func(rng *rand.Rand, probe int) float64
}

// checkAgainstRingModel runs shape on a sampler feeding a tracer and on
// the ring model, and fails unless the export bytes (or error), the
// sampled series and both drop counts agree. It returns the series.
func checkAgainstRingModel(t *testing.T, seed int64, sh sampledShape) map[string][]metrics.Sample {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := New(func() time.Duration { return 0 })
	tr.SetCapacity(max(sh.spans/2, 1), sh.counterCap)
	for i := 0; i < sh.spans; i++ {
		tr.Record(i%3, Track(i%5), "c", trickyStrings[i%len(trickyStrings)], time.Duration(rng.Intn(50))*sampleEvery, sampleEvery)
	}
	model := newRingModel(sh.counterCap, sh.seriesCap)
	s := runSampled(tr, sh.seriesCap, func(s *metrics.Sampler, clk *simclock.Virtual) {
		register := func(k int) {
			name := sh.names[k]
			model.register(name)
			s.Register(name, func() float64 {
				v := sh.value(rng, k)
				model.add(name, clk.Now(), v)
				return v
			})
		}
		for tick := 0; tick <= sh.ticks; tick++ {
			for k := range sh.names {
				if sh.late[k] == tick {
					register(k)
				}
			}
			if tick < sh.ticks {
				ticks(clk, 1)
			}
		}
		if sh.finalAtTick {
			clk.Sleep(sampleEvery / 2)
			s.Stop()
		}
	})
	series := s.Series()
	wantCounters, wantErr := model.export()
	var got, want bytes.Buffer
	gotErr := tr.WriteJSON(&got)
	if wantErr == nil {
		wantErr = writeJSONReflect(tr, wantCounters, &want)
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("seed %d: WriteJSON error = %v, ring model %v", seed, gotErr, wantErr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("seed %d: export differs from the ring model's (%d vs %d bytes)", seed, got.Len(), want.Len())
	}
	if !sameSeries(series, model.seriesView()) {
		t.Fatalf("seed %d: SampledSeries differs from the ring model's", seed)
	}
	evDropped, ctrDropped := tr.Dropped()
	if want := int64(max(sh.spans-max(sh.spans/2, 1), 0)); evDropped != want || ctrDropped != model.counters.dropped {
		t.Fatalf("seed %d: Dropped = %d spans, %d samples; the ring model %d, %d", seed, evDropped, ctrDropped, want, model.counters.dropped)
	}
	return series
}

// TestCounterViewMatchesRingModel is the differential test of the
// sampler-fed counter tracks against the ring the tracer kept before:
// random probe sets with shared names and mid-run registrations, ±0,
// equal values and NaN, a final sample at a tick's instant, and both
// retention windows wrapping, the series window first (few probes) and
// the counter window first (more than 256 probes, at the default caps'
// ratio of 256 samples to a tick).
func TestCounterViewMatchesRingModel(t *testing.T) {
	pool := []string{"a.used", "b.resident", "b.resident", "c<score>", "link.pcie0.busy", "rank1.queue", "", "z"}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sh := sampledShape{
			ticks: rng.Intn(40), finalAtTick: rng.Intn(2) == 0,
			seriesCap: 1 + rng.Intn(30), counterCap: 1 + rng.Intn(200), spans: rng.Intn(20),
		}
		for n := rng.Intn(8); n > 0; n-- {
			sh.names = append(sh.names, pool[rng.Intn(len(pool))])
			late := 0
			if rng.Intn(3) == 0 {
				late = rng.Intn(sh.ticks + 1)
			}
			sh.late = append(sh.late, late)
		}
		nan := seed%10 == 3
		sh.value = func(rng *rand.Rand, probe int) float64 {
			switch rng.Intn(8) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			case 2:
				return 7 // equal values across probes and ticks
			case 3:
				if nan && rng.Intn(20) == 0 {
					return math.NaN()
				}
			}
			return trickyValues[rng.Intn(len(trickyValues))]
		}
		checkAgainstRingModel(t, seed, sh)
	}

	counting := func(_ *rand.Rand, probe int) float64 { return float64(probe) }
	few := sampledShape{names: []string{"x", "y", "y"}, late: []int{0, 0, 1500}, ticks: 2500, seriesCap: 16, counterCap: 16 * 256, value: counting}
	many := sampledShape{ticks: 2500, seriesCap: 16, counterCap: 16 * 256, value: counting}
	for k := 0; k < 300; k++ {
		many.names = append(many.names, fmt.Sprintf("p%03d", k%290))
		many.late = append(many.late, map[bool]int{false: 0, true: 700}[k%100 == 7])
	}
	for i, sh := range []sampledShape{few, many} {
		for _, final := range []bool{false, true} {
			sh.finalAtTick = final
			one := []string{"x", "p100"}[i] // the only probe of its name
			x := checkAgainstRingModel(t, int64(1000+i), sh)[one]
			if merged := x[len(x)-1].At == x[len(x)-2].At; merged != final {
				t.Errorf("%s's last two samples share an instant: %v, want %v", one, merged, final)
			}
		}
	}
}
