package score_test

import (
	"testing"
	"time"

	"score"
)

// runAutoHintShot writes n checkpoints then restores them in reverse,
// with or without the stride predictor, returning total restore blocked
// time and the number of predicted hints.
func runAutoHintShot(t *testing.T, n int, auto bool) (blocked time.Duration, hints int64) {
	t.Helper()
	sim, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		opts := []score.ClientOption{
			score.WithGPUCache(64 << 20), score.WithHostCache(256 << 20),
		}
		if auto {
			opts = append(opts, score.WithAutoHints())
		}
		c, err := sim.NewClient(0, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for v := 0; v < n; v++ {
			if err := c.CheckpointVirtual(int64(v), 16<<20); err != nil {
				t.Fatal(err)
			}
			c.Compute(2 * time.Millisecond)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		for v := n - 1; v >= 0; v-- {
			start := sim.Clock().Now()
			if _, err := c.Restart(int64(v)); err != nil {
				t.Fatal(err)
			}
			blocked += sim.Clock().Now() - start
			c.Compute(5 * time.Millisecond)
		}
		hints = c.PredictedHints()
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	})
	return blocked, hints
}

func TestAutoHintsDetectReversePattern(t *testing.T) {
	const n = 32
	withBlocked, hints := runAutoHintShot(t, n, true)
	withoutBlocked, noHints := runAutoHintShot(t, n, false)
	if noHints != 0 {
		t.Fatalf("predictor active without WithAutoHints: %d hints", noHints)
	}
	if hints == 0 {
		t.Fatal("predictor issued no hints on a pure reverse pattern")
	}
	// README's auto-hints row: unhinted reverse restores block 5.39× as
	// long as auto-hinted ones (34.07 ms vs 6.32 ms).
	if ratio := float64(withoutBlocked) / float64(withBlocked); ratio < 5 {
		t.Errorf("auto-hinted restores blocked %v, unhinted %v: %.2f× less, want ≥ 5×",
			withBlocked, withoutBlocked, ratio)
	}
	t.Logf("auto-hints: %d hints predicted, blocked %v vs %v unhinted", hints, withBlocked, withoutBlocked)
}

func TestAutoHintsHarmlessOnRandomOrder(t *testing.T) {
	// An unpredictable order must still restore correctly (predictions
	// are advisory only).
	sim, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		c, err := sim.NewClient(0, 0,
			score.WithGPUCache(64<<20), score.WithHostCache(256<<20),
			score.WithAutoHints())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		const n = 16
		for v := 0; v < n; v++ {
			if err := c.CheckpointVirtual(int64(v), 8<<20); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		order := []int64{3, 11, 0, 7, 14, 2, 9, 5, 15, 1, 8, 12, 4, 10, 6, 13}
		for _, v := range order {
			if _, err := c.Restart(v); err != nil {
				t.Fatalf("restart %d: %v", v, err)
			}
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	})
}
