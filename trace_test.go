package score_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"score"
)

func TestSimTracingProducesChromeTrace(t *testing.T) {
	sim, err := score.NewSim(score.WithTracing(), score.WithGPUsPerNode(2))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		c, err := sim.NewClient(0, 1,
			score.WithGPUCache(16<<20), score.WithHostCache(64<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for v := int64(0); v < 4; v++ {
			if err := c.CheckpointVirtual(v, 4<<20); err != nil {
				t.Fatal(err)
			}
			c.Compute(time.Millisecond)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		for v := int64(3); v >= 0; v-- {
			if _, err := c.Restart(v); err != nil {
				t.Fatal(err)
			}
		}
	})
	var buf bytes.Buffer
	if err := sim.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var haveCkpt, haveRestore, haveFlush bool
	for _, e := range doc.TraceEvents {
		name, _ := e["name"].(string)
		switch {
		case strings.HasPrefix(name, "checkpoint "):
			haveCkpt = true
		case strings.HasPrefix(name, "restore "):
			haveRestore = true
		case strings.HasPrefix(name, "flush "):
			haveFlush = true
		}
	}
	if !haveCkpt || !haveRestore || !haveFlush {
		t.Errorf("trace missing span kinds: ckpt=%v restore=%v flush=%v",
			haveCkpt, haveRestore, haveFlush)
	}
}

// TestSimTracesKeyByJobRank: a multi-node Sim's clients trace under their
// job ranks, so processes on two nodes that share a GPU index keep
// ledgers of their own.
func TestSimTracesKeyByJobRank(t *testing.T) {
	sim, err := score.NewSim(score.WithTracing(), score.WithNodes(2), score.WithGPUsPerNode(2))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		for node := 0; node < 2; node++ {
			for gpu := 0; gpu < 2; gpu++ {
				c, err := sim.NewClient(node, gpu, score.WithGPUCache(16<<20), score.WithHostCache(64<<20))
				if err != nil {
					t.Fatal(err)
				}
				if err := c.CheckpointVirtual(0, 4<<20); err != nil {
					t.Fatal(err)
				}
				if err := c.WaitFlush(); err != nil {
					t.Fatal(err)
				}
				c.Close()
			}
		}
	})
	if got, want := sim.Tracer().Flight().Ranks(), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("ledger ranks %v, want %v (node × 2 + GPU)", got, want)
	}
}

func TestWriteTraceWithoutTracingFails(t *testing.T) {
	sim, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Error("WriteTrace without WithTracing should fail")
	}
}

// TestSimSamplingProducesCounterTracks checks the WithSampling facade:
// gauge timelines surface via SampledSeries and — with tracing on — as
// Chrome counter (ph "C") events in the trace export.
func TestSimSamplingProducesCounterTracks(t *testing.T) {
	sim, err := score.NewSim(score.WithTracing(), score.WithSampling(100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		c, err := sim.NewClient(0, 0,
			score.WithGPUCache(16<<20), score.WithHostCache(64<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for v := int64(0); v < 4; v++ {
			if err := c.CheckpointVirtual(v, 4<<20); err != nil {
				t.Fatal(err)
			}
			c.Compute(time.Millisecond)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
	})

	series := sim.SampledSeries()
	used, ok := series["node0.gpu0.cache.gpu.used_bytes"]
	if !ok {
		t.Fatalf("no GPU cache occupancy series; have %d series", len(series))
	}
	if len(used) == 0 {
		t.Fatal("GPU cache occupancy series is empty")
	}
	var peak float64
	for _, p := range used {
		if p.Value > peak {
			peak = p.Value
		}
	}
	if peak == 0 {
		t.Error("GPU cache occupancy never rose above zero across 4 checkpoints")
	}

	var buf bytes.Buffer
	if err := sim.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var counters int
	for _, e := range doc.TraceEvents {
		if e.Ph == "C" && strings.HasPrefix(e.Name, "node0.gpu0.") {
			counters++
		}
	}
	if counters == 0 {
		t.Error("trace export has no counter events for the sampled client")
	}
}
