package score_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"score"
)

// TestCrashRecoveryRoundTrip simulates a process failure: a first client
// writes checkpoints with a durable store, drains its flushes, and is
// abandoned (as if the process died); a second client opened on the same
// store recovers the full history and restores every checkpoint through
// the normal promotion path, bit-exact.
func TestCrashRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const n = 12
	payloads := make([][]byte, n)
	for v := range payloads {
		payloads[v] = bytes.Repeat([]byte{byte(v * 3)}, 64*1024)
	}

	// First life: write, flush, "crash" (no Close needed for the store;
	// durability comes from the flush chain).
	sim1, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	sim1.Run(func() {
		c, err := sim1.NewClient(0, 0,
			score.WithGPUCache(256<<10), score.WithHostCache(1<<20),
			score.WithStore(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for v := 0; v < n; v++ {
			if err := c.Checkpoint(int64(v), payloads[v]); err != nil {
				t.Fatal(err)
			}
			c.Compute(time.Millisecond)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
	})

	// The store directory must now contain the checkpoint files.
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != n {
		t.Fatalf("store holds %d files (%v), want %d", len(files), err, n)
	}

	// Second life: recover and read everything back in reverse.
	sim2, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	sim2.Run(func() {
		c, err := sim2.NewClient(0, 0,
			score.WithGPUCache(256<<10), score.WithHostCache(1<<20),
			score.WithStore(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		recovered := c.RecoveredVersions()
		if len(recovered) != n {
			t.Fatalf("recovered %d versions, want %d", len(recovered), n)
		}
		for v := n - 1; v >= 0; v-- {
			c.PrefetchEnqueue(int64(v))
		}
		c.PrefetchStart()
		for v := n - 1; v >= 0; v-- {
			got, err := c.Restart(int64(v))
			if err != nil {
				t.Fatalf("restart %d after recovery: %v", v, err)
			}
			if !bytes.Equal(got, payloads[v]) {
				t.Fatalf("restart %d: data mismatch after recovery", v)
			}
		}
		if size, err := c.RestartSize(5); err != nil || size != 64*1024 {
			t.Errorf("RestartSize after recovery = %d, %v", size, err)
		}
		// A recovered version cannot be overwritten (immutability).
		if err := c.Checkpoint(0, []byte("overwrite")); err == nil {
			t.Error("overwriting a recovered version should fail")
		}
		// New versions can still be appended and restored.
		if err := c.Checkpoint(int64(n), []byte("new era")); err != nil {
			t.Fatal(err)
		}
		if got, err := c.Restart(int64(n)); err != nil || string(got) != "new era" {
			t.Errorf("post-recovery checkpoint: %q, %v", got, err)
		}
	})
}

// TestRecoveryRejectsCorruptStore flips a byte in a stored checkpoint and
// verifies the client surfaces it instead of silently restoring garbage.
func TestRecoveryRejectsCorruptStore(t *testing.T) {
	dir := t.TempDir()
	sim1, _ := score.NewSim()
	sim1.Run(func() {
		c, err := sim1.NewClient(0, 0,
			score.WithGPUCache(256<<10), score.WithHostCache(1<<20),
			score.WithStore(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Checkpoint(0, bytes.Repeat([]byte{0xAB}, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
	})
	path := filepath.Join(dir, "0.ckpt")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	sim2, _ := score.NewSim()
	sim2.Run(func() {
		if _, err := sim2.NewClient(0, 0, score.WithStore(dir)); err == nil {
			t.Error("client opened on a corrupt store without complaint")
		}
	})
}

// TestVirtualPayloadsNotPersisted confirms size-only checkpoints skip the
// store (there are no bytes to persist).
func TestVirtualPayloadsNotPersisted(t *testing.T) {
	dir := t.TempDir()
	sim, _ := score.NewSim()
	sim.Run(func() {
		c, err := sim.NewClient(0, 0, score.WithStore(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.CheckpointVirtual(0, 1<<20); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
	})
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(files) != 0 {
		t.Errorf("virtual payloads persisted %d files", len(files))
	}
}

// TestConcurrentRestartsOfARecoveredVersion has two tasks Restart the same
// recovered version while every durable read is delayed 1 ms. The first
// task's load sleeps inside the store read; the second, arriving during
// that sleep, must park until the load ends rather than block its
// coroutine, so the run neither hangs nor reads the store twice.
func TestConcurrentRestartsOfARecoveredVersion(t *testing.T) {
	dir := t.TempDir()
	data := bytes.Repeat([]byte{0x3c}, 64*1024)
	sim1, _ := score.NewSim()
	sim1.Run(func() {
		c, err := sim1.NewClient(0, 0, score.WithStore(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Checkpoint(1, data); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
	})

	sim2, _ := score.NewSim()
	inj := sim2.NewFaultInjector(1, score.DelayOps(score.FaultStoreRead, time.Millisecond, 0, 0))
	sim2.Run(func() {
		c, err := sim2.NewClient(0, 0, score.WithStore(dir), score.WithFaultInjector(inj))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg := sim2.NewWaitGroup()
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			sim2.Clock().Go(func() {
				defer wg.Done()
				got, err := c.Restart(1)
				switch {
				case err != nil:
					errs[i] = err
				case !bytes.Equal(got, data):
					errs[i] = errors.New("restored different bytes")
				}
			})
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("restart %d: %v", i, err)
			}
		}
	})
	if n := inj.Ops(score.FaultStoreRead); n != 1 {
		t.Errorf("%d durable reads, want 1 (the second restart shares the first's load)", n)
	}
}
