package ckptstore

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"score/internal/simclock"
)

func openT(t *testing.T, dir string) (*Store, []error) {
	t.Helper()
	s, corrupt, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, corrupt
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	data := []byte("wavefield snapshot #7")
	if err := s.Put(7, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("payload mismatch")
	}
	if !s.Has(7) || s.Has(8) {
		t.Error("Has is wrong")
	}
	if n, err := s.Size(7); err != nil || n != int64(len(data)) {
		t.Errorf("Size = %d, %v", n, err)
	}
	if s.TotalBytes() != int64(len(data)) {
		t.Errorf("TotalBytes = %d", s.TotalBytes())
	}
}

func TestPutRejectsDuplicates(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	if err := s.Put(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte("b")); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Put: %v, want ErrExists", err)
	}
}

func TestGetMissing(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	if _, err := s.Get(42); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
	if _, err := s.Size(42); !errors.Is(err, ErrNotFound) {
		t.Errorf("Size(missing) = %v", err)
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	for i := int64(0); i < 10; i++ {
		if err := s.Put(i, bytes.Repeat([]byte{byte(i)}, int(i+1)*100)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-open: the index must be rebuilt from disk alone.
	s2, corrupt := openT(t, dir)
	if len(corrupt) != 0 {
		t.Fatalf("unexpected corrupt files: %v", corrupt)
	}
	ids := s2.IDs()
	if len(ids) != 10 {
		t.Fatalf("recovered %d ids, want 10", len(ids))
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Errorf("ids[%d] = %d", i, id)
		}
	}
	got, err := s2.Get(3)
	if err != nil || len(got) != 400 {
		t.Errorf("Get(3) after reopen: %d bytes, %v", len(got), err)
	}
}

func TestCorruptFilesDetectedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := s.Put(1, []byte("good checkpoint payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, []byte("to be corrupted payload")); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of checkpoint 2.
	path := filepath.Join(dir, "2.ckpt")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[headerSize+3] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	// Also drop a truncated file and a stale temp file.
	if err := os.WriteFile(filepath.Join(dir, "9.ckpt"), buf[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "5.ckpt.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, corrupt := openT(t, dir)
	if len(corrupt) != 2 {
		t.Fatalf("corrupt reports = %d (%v), want 2", len(corrupt), corrupt)
	}
	if !s2.Has(1) {
		t.Error("valid checkpoint 1 lost")
	}
	if s2.Has(2) || s2.Has(9) {
		t.Error("corrupt checkpoints indexed")
	}
	if _, err := os.Stat(filepath.Join(dir, "5.ckpt.tmp")); !os.IsNotExist(err) {
		t.Error("stale temp file not cleaned up")
	}
}

func TestCorruptHeaderDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := s.Put(3, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "3.ckpt")
	buf, _ := os.ReadFile(path)
	buf[9] ^= 0xFF // id byte: header CRC must catch it
	os.WriteFile(path, buf, 0o644)
	_, corrupt := openT(t, dir)
	if len(corrupt) != 1 {
		t.Errorf("header corruption not detected: %v", corrupt)
	}
}

func TestDelete(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	if err := s.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if s.Has(1) {
		t.Error("deleted checkpoint still indexed")
	}
	if err := s.Delete(1); err != nil {
		t.Errorf("deleting absent id: %v", err)
	}
	// After deletion the id may be written again.
	if err := s.Put(1, []byte("y")); err != nil {
		t.Errorf("re-put after delete: %v", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	if err := s.Put(0, nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(0)
	if err != nil || len(got) != 0 {
		t.Errorf("empty payload round trip: %d bytes, %v", len(got), err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	next := int64(0)
	f := func(data []byte) bool {
		id := next
		next++
		if err := s.Put(id, data); err != nil {
			return false
		}
		got, err := s.Get(id)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	// Everything written must survive a reopen.
	s2, corrupt := openT(t, dir)
	if len(corrupt) != 0 {
		t.Fatalf("corrupt after property run: %v", corrupt)
	}
	if int64(len(s2.IDs())) != next {
		t.Errorf("recovered %d ids, want %d", len(s2.IDs()), next)
	}
}

func TestScrubQuarantinesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	for i := int64(0); i < 4; i++ {
		if err := s.Put(i, bytes.Repeat([]byte{byte(i + 1)}, 512)); err != nil {
			t.Fatal(err)
		}
	}
	// Bit-rot checkpoint 2's payload on disk after indexing.
	path := filepath.Join(dir, "2.ckpt")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[headerSize+7] ^= 0x01
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	quarantined, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 1 || quarantined[0] != 2 {
		t.Fatalf("quarantined = %v, want [2]", quarantined)
	}
	if s.Has(2) {
		t.Error("quarantined checkpoint still indexed")
	}
	if _, err := s.Get(2); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(quarantined) = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(path + corruptSuffix); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt original still present under .ckpt name")
	}
	// Healthy files untouched; a second scrub is clean.
	for _, id := range []int64{0, 1, 3} {
		if _, err := s.Get(id); err != nil {
			t.Errorf("Get(%d) after scrub: %v", id, err)
		}
	}
	if q, err := s.Scrub(); err != nil || len(q) != 0 {
		t.Errorf("second scrub: %v, %v", q, err)
	}
	// Quarantined files are invisible to a reopen.
	s2, corrupt := openT(t, dir)
	if len(corrupt) != 0 {
		t.Errorf("reopen reported corrupt: %v", corrupt)
	}
	if s2.Has(2) {
		t.Error("reopen indexed a quarantined checkpoint")
	}
}

func TestRestageRepairsQuarantinedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	data := bytes.Repeat([]byte{0xC4}, 256)
	if err := s.Put(5, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "5.ckpt")
	buf, _ := os.ReadFile(path)
	buf[headerSize] ^= 0xFF
	os.WriteFile(path, buf, 0o644)
	if q, _ := s.Scrub(); len(q) != 1 {
		t.Fatalf("scrub quarantined %v", q)
	}
	if err := s.Restage(5, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(5)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("Get after restage: %d bytes, %v", len(got), err)
	}
}

// hookFuncs adapts closures to FaultHook for tests.
type hookFuncs struct {
	beforeWrite func(id int64, size int) error
	onRead      func(id int64, raw []byte) ([]byte, error)
}

func (h hookFuncs) BeforeWrite(id int64, size int) error {
	if h.beforeWrite == nil {
		return nil
	}
	return h.beforeWrite(id, size)
}

func (h hookFuncs) OnRead(id int64, raw []byte) ([]byte, error) {
	if h.onRead == nil {
		return raw, nil
	}
	return h.onRead(id, raw)
}

func TestFaultHookWrite(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	injected := errors.New("ssd gone")
	s.SetFaultHook(hookFuncs{beforeWrite: func(id int64, size int) error {
		if id == 1 {
			return injected
		}
		return nil
	}})
	if err := s.Put(1, []byte("doomed")); !errors.Is(err, injected) {
		t.Errorf("Put under write fault: %v", err)
	}
	if s.Has(1) {
		t.Error("failed Put left an index entry")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Errorf("failed Put touched the disk: %v", files)
	}
	if err := s.Put(2, []byte("fine")); err != nil {
		t.Errorf("unfaulted Put: %v", err)
	}
}

func TestFaultHookReadCorruptionTripsCRC(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	if err := s.Put(1, bytes.Repeat([]byte{7}, 128)); err != nil {
		t.Fatal(err)
	}
	s.SetFaultHook(hookFuncs{onRead: func(id int64, raw []byte) ([]byte, error) {
		mut := append([]byte(nil), raw...)
		mut[headerSize+1] ^= 0x80
		return mut, nil
	}})
	if _, err := s.Get(1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get of hook-corrupted read = %v, want ErrCorrupt", err)
	}
	// The disk itself is clean: Scrub (hook-free) finds nothing, and
	// removing the hook restores reads.
	if q, err := s.Scrub(); err != nil || len(q) != 0 {
		t.Errorf("scrub of clean disk under read fault: %v, %v", q, err)
	}
	s.SetFaultHook(nil)
	if _, err := s.Get(1); err != nil {
		t.Errorf("Get after hook removal: %v", err)
	}
}

func TestRestageBypassesFaultHook(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	s.SetFaultHook(hookFuncs{beforeWrite: func(id int64, size int) error {
		return errors.New("every write fails")
	}})
	if err := s.Restage(9, []byte("repair")); err != nil {
		t.Fatalf("Restage under write fault: %v", err)
	}
	s.SetFaultHook(nil)
	if got, err := s.Get(9); err != nil || string(got) != "repair" {
		t.Errorf("Get after restage: %q, %v", got, err)
	}
}

// sleepingHook is a write hook that sleeps a seeded virtual interval on
// clk: the one place a Put yields to the clock's other tasks.
func sleepingHook(clk *simclock.Virtual, seed int64) FaultHook {
	rng := rand.New(rand.NewSource(seed))
	return hookFuncs{beforeWrite: func(int64, int) error {
		clk.Sleep(time.Duration(1+rng.Intn(50)) * time.Microsecond)
		return nil
	}}
}

// TestScrubUnderActiveWriters runs scrub passes concurrently with Put and
// Restage traffic: writer tasks whose Puts sleep in the fault hook, and a
// scrubber task between them. A scrub must never quarantine a checkpoint
// that was committed healthy — the historical race renamed a
// just-committed file to .corrupt when its validation interleaved with
// the commit rename.
func TestScrubUnderActiveWriters(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	clk := simclock.NewVirtual()
	s.SetFaultHook(sleepingHook(clk, 1))

	const writers = 4
	const perWriter = 25
	payload := func(id int64) []byte {
		return bytes.Repeat([]byte{byte(id)}, 64+int(id%7))
	}

	var errs []error
	clk.Run(func() {
		wg := simclock.NewWaitGroup(clk)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					id := int64(w*perWriter + i)
					if err := s.Put(id, payload(id)); err != nil {
						errs = append(errs, err)
						return
					}
					if i%5 == 0 {
						if err := s.Restage(id, payload(id)); err != nil {
							errs = append(errs, err)
							return
						}
					}
				}
			})
		}
		done := false
		clk.Go(func() {
			for !done {
				if q, err := s.Scrub(); err != nil {
					errs = append(errs, err)
					return
				} else if len(q) != 0 {
					errs = append(errs, errors.New("scrub quarantined healthy checkpoints under active writers"))
					return
				}
				clk.Sleep(10 * time.Microsecond)
			}
		})
		wg.Wait()
		done = true
	})
	if len(errs) != 0 {
		t.Fatal(errs[0])
	}

	// Every write survived on disk and validates, even across a reopen.
	s2, corrupt := openT(t, dir)
	if len(corrupt) != 0 {
		t.Fatalf("reopen found %d corrupt file(s): %v", len(corrupt), corrupt)
	}
	for id := int64(0); id < writers*perWriter; id++ {
		got, err := s2.Get(id)
		if err != nil || !bytes.Equal(got, payload(id)) {
			t.Fatalf("checkpoint %d after concurrent scrub: %v", id, err)
		}
	}
}

// TestConcurrentPutSameID races writers of one id, each a task whose Put
// sleeps in the fault hook after its first duplicate check: exactly one
// wins, and the surviving file matches the indexed winner's bytes.
func TestConcurrentPutSameID(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	clk := simclock.NewVirtual()
	s.SetFaultHook(sleepingHook(clk, 2))
	const racers = 8
	var wins [][]byte
	errs := make([]error, racers)
	clk.Run(func() {
		for r := 0; r < racers; r++ {
			data := bytes.Repeat([]byte{byte(r + 1)}, 32)
			clk.Go(func() {
				errs[r] = s.Put(42, data)
				if errs[r] == nil {
					wins = append(wins, data)
				}
			})
		}
	})
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrExists) {
			t.Fatalf("racing Put: %v", err)
		}
	}
	if len(wins) != 1 {
		t.Fatalf("racing Puts of one id: %d winners, want 1", len(wins))
	}
	if got, err := s.Get(42); err != nil || !bytes.Equal(got, wins[0]) {
		t.Fatalf("file does not match the winning Put: err=%v", err)
	}
}

// TestOpenRemovesOrphanedTempFiles: a crash mid-write leaves *.tmp files
// behind; Open must unlink them (including the unique-suffix form) and
// index only committed checkpoints.
func TestOpenRemovesOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := s.Put(1, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"2.ckpt.tmp", "3.ckpt.17.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, corrupt := openT(t, dir)
	if len(corrupt) != 0 {
		t.Fatalf("orphaned temp files reported corrupt: %v", corrupt)
	}
	if got := s2.IDs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("IDs after reopen = %v, want [1]", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("orphaned temp file survived reopen: %s", e.Name())
		}
	}
}
