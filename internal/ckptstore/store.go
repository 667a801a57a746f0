// Package ckptstore is the durable checkpoint store backing the SSD/PFS
// tiers for real-payload runs: an append-oriented, CRC-protected,
// file-per-checkpoint format with a rebuildable index, in the spirit of
// VELOC's node-local checkpoint files.
//
// The simulated fabric accounts for the *time* of SSD writes; this
// package provides the *bytes*, so the rank-failure scenario and recovery
// tests can kill a client and restart from what actually reached storage. Each checkpoint
// is one file:
//
//	header:  magic "SCOR" | version u16 | flags u16
//	         id i64 | payloadLen u32 | headerCRC u32
//	body:    payload bytes
//	trailer: payloadCRC u32
//
// Writes go through a temp file + atomic rename, so a crash mid-write
// never leaves a torn checkpoint visible; Open scans the directory and
// indexes every valid checkpoint, skipping (and reporting) corrupt ones.
package ckptstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	magic         = "SCOR"
	formatVersion = 1
	headerSize    = 4 + 2 + 2 + 8 + 4 + 4
	trailerSize   = 4
	fileSuffix    = ".ckpt"
	tempSuffix    = ".tmp"
	corruptSuffix = ".corrupt"
)

// Errors returned by Store operations.
var (
	// ErrNotFound: no durable copy of the requested id.
	ErrNotFound = errors.New("ckptstore: checkpoint not found")
	// ErrCorrupt: the stored data failed validation.
	ErrCorrupt = errors.New("ckptstore: checkpoint corrupt")
	// ErrExists: the id is already stored (checkpoints are immutable).
	ErrExists = errors.New("ckptstore: checkpoint already stored")
)

// A FaultHook lets a fault injector interpose on the durable paths.
// Either method may be nil-receiver-free no-ops. A hook runs in the
// calling task and may sleep on its clock; the store re-checks what a
// sleep can change.
type FaultHook interface {
	// BeforeWrite runs before Put writes id's bytes; a non-nil error
	// aborts the write (the disk is untouched).
	BeforeWrite(id int64, size int) error
	// OnRead runs on the raw file bytes Get read, before validation. It
	// may return an error (I/O fault) or a mutated copy of raw (silent
	// corruption, which the CRC layer then detects).
	OnRead(id int64, raw []byte) ([]byte, error)
}

// Store is a directory of checkpoint files with an in-memory index. It
// takes no lock: the tasks of one clock use it, one at a time, or its
// owner does between runs. A task switch can happen only inside a fault
// hook, so a scrub pass or a commit rename runs whole.
type Store struct {
	dir    string
	index  map[int64]int64 // id -> payload length
	hook   FaultHook
	tmpSeq int64 // unique temp-file names; two writers never share one
}

// SetFaultHook installs (or, with nil, removes) the fault-injection hook
// on Put and Get. Scrub and Open bypass it: they report the disk's ground
// truth.
func (s *Store) SetFaultHook(h FaultHook) { s.hook = h }

// Open creates (if needed) and indexes a store rooted at dir. Corrupt or
// torn files are skipped and reported in the returned slice (they are
// left on disk for forensics; Delete removes them explicitly).
func Open(dir string) (*Store, []error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("ckptstore: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, index: map[int64]int64{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("ckptstore: reading %s: %w", dir, err)
	}
	var corrupt []error
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tempSuffix) {
			// Torn write from a crash: unreachable by design.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		id, size, err := s.validateFile(filepath.Join(dir, name))
		if err != nil {
			corrupt = append(corrupt, fmt.Errorf("%s: %w", name, err))
			continue
		}
		s.index[id] = size
	}
	return s, corrupt, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(id int64) string {
	return filepath.Join(s.dir, strconv.FormatInt(id, 10)+fileSuffix)
}

// encode serializes id+payload into the on-disk format.
func encode(id int64, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload)+trailerSize)
	copy(buf[0:4], magic)
	binary.LittleEndian.PutUint16(buf[4:], formatVersion)
	binary.LittleEndian.PutUint16(buf[6:], 0) // flags
	binary.LittleEndian.PutUint64(buf[8:], uint64(id))
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[:20]))
	copy(buf[headerSize:], payload)
	binary.LittleEndian.PutUint32(buf[headerSize+len(payload):], crc32.ChecksumIEEE(payload))
	return buf
}

// commit writes id's checkpoint file through a fresh, uniquely named
// temp file and a rename, then indexes it.
func (s *Store) commit(id int64, payload []byte) error {
	s.tmpSeq++
	tmp := fmt.Sprintf("%s.%d%s", s.path(id), s.tmpSeq, tempSuffix)
	if err := os.WriteFile(tmp, encode(id, payload), 0o644); err != nil {
		return fmt.Errorf("ckptstore: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, s.path(id)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("ckptstore: committing %d: %w", id, err)
	}
	s.index[id] = int64(len(payload))
	return nil
}

// Put durably stores payload under id. The write is atomic: a crash
// leaves either the complete checkpoint or nothing. The fault hook may
// sleep, so Put re-checks for a duplicate after it: of two racing Puts of
// the same id exactly one wins and the file always matches the indexed
// entry.
func (s *Store) Put(id int64, payload []byte) error {
	if s.Has(id) {
		return ErrExists
	}
	if s.hook != nil {
		if err := s.hook.BeforeWrite(id, len(payload)); err != nil {
			return fmt.Errorf("ckptstore: writing %d: %w", id, err)
		}
		if s.Has(id) {
			return ErrExists
		}
	}
	return s.commit(id, payload)
}

// Get reads and validates checkpoint id.
func (s *Store) Get(id int64) ([]byte, error) {
	if !s.Has(id) {
		return nil, ErrNotFound
	}
	buf, err := os.ReadFile(s.path(id))
	if err != nil {
		return nil, fmt.Errorf("ckptstore: reading %d: %w", id, err)
	}
	if s.hook != nil {
		buf, err = s.hook.OnRead(id, buf)
		if err != nil {
			return nil, fmt.Errorf("ckptstore: reading %d: %w", id, err)
		}
	}
	payload, gotID, err := decode(buf)
	if err != nil {
		return nil, err
	}
	if gotID != id {
		return nil, fmt.Errorf("%w: file for %d contains id %d", ErrCorrupt, id, gotID)
	}
	return payload, nil
}

// Has reports whether a valid checkpoint id is indexed.
func (s *Store) Has(id int64) bool {
	_, ok := s.index[id]
	return ok
}

// Size returns the stored payload length for id.
func (s *Store) Size(id int64) (int64, error) {
	n, ok := s.index[id]
	if !ok {
		return 0, ErrNotFound
	}
	return n, nil
}

// IDs returns the indexed checkpoint ids in ascending order.
func (s *Store) IDs() []int64 {
	out := make([]int64, 0, len(s.index))
	for id := range s.index {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Delete removes checkpoint id (used when discarding consumed history).
// Deleting an absent id is not an error.
func (s *Store) Delete(id int64) error {
	delete(s.index, id)
	if err := os.Remove(s.path(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("ckptstore: deleting %d: %w", id, err)
	}
	return nil
}

// TotalBytes returns the sum of indexed payload sizes.
func (s *Store) TotalBytes() int64 {
	var t int64
	for _, n := range s.index {
		t += n
	}
	return t
}

// Scrub re-verifies every checkpoint file in the store directory —
// re-reading each and checking header and payload CRCs — and quarantines
// failures: the file is renamed to <name>.ckpt.corrupt (kept for
// forensics) and its id is dropped from the index. It covers both indexed
// checkpoints and files Open skipped as corrupt, so a scrub after reopen
// leaves the directory clean. It returns the quarantined ids, ascending.
// Scrub reads the disk directly, bypassing any fault hook, so it reports
// ground truth even mid-chaos. The pass never yields, so no commit runs
// inside it and a healthy just-committed checkpoint is never mistaken
// for corruption.
func (s *Store) Scrub() ([]int64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: scrubbing %s: %w", s.dir, err)
	}
	var quarantined []int64
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		// The file name is "<id>.ckpt"; an unparseable name is itself a
		// corruption symptom and gets quarantined under id -1.
		id, parseErr := strconv.ParseInt(strings.TrimSuffix(name, fileSuffix), 10, 64)
		if parseErr != nil {
			id = -1
		}
		path := filepath.Join(s.dir, name)
		gotID, _, err := s.validateFile(path)
		if err == nil && parseErr == nil && gotID == id {
			continue
		}
		if err == nil {
			err = fmt.Errorf("%w: file %s contains id %d", ErrCorrupt, name, gotID)
		}
		if renameErr := os.Rename(path, path+corruptSuffix); renameErr != nil && !os.IsNotExist(renameErr) {
			if firstErr == nil {
				firstErr = fmt.Errorf("ckptstore: quarantining %s: %v (scrub error: %w)", name, renameErr, err)
			}
			continue
		}
		if id >= 0 {
			delete(s.index, id)
			quarantined = append(quarantined, id)
		}
	}
	sort.Slice(quarantined, func(i, j int) bool { return quarantined[i] < quarantined[j] })
	return quarantined, firstErr
}

// Restage overwrites checkpoint id with a fresh payload, re-creating a
// replica that was lost or quarantined (the immutability rule applies to
// *new* versions via Put; Restage exists for repair, where the caller has
// re-verified the bytes against the checkpoint's checksum). The write is
// atomic and bypasses the fault hook — repair must not be re-faulted by
// the schedule that caused it.
func (s *Store) Restage(id int64, payload []byte) error { return s.commit(id, payload) }

// validateFile decodes and checks a checkpoint file, returning its id and
// payload size.
func (s *Store) validateFile(path string) (int64, int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	payload, id, err := decode(buf)
	if err != nil {
		return 0, 0, err
	}
	return id, int64(len(payload)), nil
}

// decode validates a serialized checkpoint and returns its payload and id.
func decode(buf []byte) ([]byte, int64, error) {
	if len(buf) < headerSize+trailerSize {
		return nil, 0, fmt.Errorf("%w: truncated (%d bytes)", ErrCorrupt, len(buf))
	}
	if string(buf[0:4]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != formatVersion {
		return nil, 0, fmt.Errorf("%w: unsupported format version %d", ErrCorrupt, v)
	}
	if crc := binary.LittleEndian.Uint32(buf[20:]); crc != crc32.ChecksumIEEE(buf[:20]) {
		return nil, 0, fmt.Errorf("%w: header CRC mismatch", ErrCorrupt)
	}
	id := int64(binary.LittleEndian.Uint64(buf[8:]))
	n := int(binary.LittleEndian.Uint32(buf[16:]))
	if len(buf) != headerSize+n+trailerSize {
		return nil, 0, fmt.Errorf("%w: length %d does not match header (%d)", ErrCorrupt, len(buf), headerSize+n+trailerSize)
	}
	payload := buf[headerSize : headerSize+n]
	if crc := binary.LittleEndian.Uint32(buf[headerSize+n:]); crc != crc32.ChecksumIEEE(payload) {
		return nil, 0, fmt.Errorf("%w: payload CRC mismatch", ErrCorrupt)
	}
	return payload, id, nil
}
