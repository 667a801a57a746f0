package core

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"score/internal/ckptstore"
	"score/internal/fabric"
	"score/internal/metrics"
	"score/internal/trace"
)

// Live tier migration (the scheduling-events layer). Migrate copies the
// rank's durable SSD tier to a successor node's store over the NIC
// fabric — the same inter-node path partner-copy replication crosses —
// while foreground traffic keeps running. The copy is catch-up-round
// based (versions landing mid-round are picked up next round) and ends
// with a cutover validation that re-reads every source version and
// byte-compares it against the successor's copy: the successor either
// restores bit-exactly or the caller gets a definitive error, never a
// silently divergent store.

// ErrMigrationIncomplete: the migration could not converge (foreground
// flushes kept outrunning the catch-up rounds, or a version could not be
// copied or validated within the round budget). Definitive — the
// successor store must not be cut over to.
var ErrMigrationIncomplete = errors.New("core: migration did not converge to a validated cutover")

// MigrationParams configures one live migration.
type MigrationParams struct {
	// Dest is the successor node's store; required.
	Dest *ckptstore.Store
	// Path is the fabric route the copies cross (local NVMe read → local
	// NIC → successor NIC → successor NVMe); required.
	Path fabric.Path
	// FaultHook, when set, is consulted before each per-version copy —
	// the migration fault site. A non-nil return fails that copy attempt
	// (retried under the client's retry policy).
	FaultHook func(id, size int64) error
	// MaxRounds bounds the catch-up rounds (and validation re-checks);
	// 0 takes the default of 8.
	MaxRounds int
}

// MigrationReport summarizes one migration attempt.
type MigrationReport struct {
	// Versions and Bytes count what this migration copied (versions the
	// successor already held are skipped and not counted).
	Versions int
	Bytes    int64
	// Rounds is how many catch-up rounds ran (validation included).
	Rounds int
	// Validated reports whether the cutover validation passed: every
	// source version byte-identical on the successor.
	Validated bool
	// Started and Finished bound the migration on the virtual timeline.
	Started, Finished time.Duration
}

// Migrate copies this rank's durable store to a successor over the NIC
// fabric, concurrently with foreground traffic, and validates the
// cutover. On success the returned report has Validated=true; on
// failure the error is definitive (ErrMigrationIncomplete, a shutdown
// error, or the underlying I/O failure after retries exhausted).
func (c *Client) Migrate(p MigrationParams) (MigrationReport, error) {
	rep := MigrationReport{Started: c.clk.Now()}
	if c.p.Store == nil {
		return rep, errors.New("core: migration requires a durable SSD store")
	}
	if p.Dest == nil {
		return rep, errors.New("core: migration requires a destination store")
	}
	if len(p.Path) == 0 {
		return rep, errors.New("core: migration requires a fabric path")
	}
	maxRounds := p.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 8
	}
	c.rec.MigrationStart()
	c.lifecycle(-1, trace.LMigrateStart, "", fmt.Sprintf("%d versions resident", len(c.p.Store.IDs())))

	finish := func(err error) (MigrationReport, error) {
		rep.Finished = c.clk.Now()
		detail := "validated"
		if err != nil {
			detail = err.Error()
		}
		c.lifecycle(-1, trace.LMigrateEnd, "",
			fmt.Sprintf("%d versions, %d bytes, %d rounds: %s", rep.Versions, rep.Bytes, rep.Rounds, detail))
		return rep, err
	}

	// Catch-up rounds: copy every source version the successor lacks.
	// Foreground flushes landing mid-round appear in the next round's
	// listing; convergence is a round that copies nothing.
	for {
		if rep.Rounds >= maxRounds {
			return finish(fmt.Errorf("%w: %d catch-up rounds did not converge", ErrMigrationIncomplete, rep.Rounds))
		}
		rep.Rounds++
		copied, err := c.migrateRound(p)
		if err != nil {
			return finish(err)
		}
		if copied.versions == 0 {
			break
		}
		rep.Versions += copied.versions
		rep.Bytes += copied.bytes
	}

	// Cutover validation: re-read every source version and byte-compare
	// against the successor. New versions appearing mid-validation send
	// the migration back to catch-up (bounded by maxRounds).
	for {
		clean, err := c.migrateValidate(p)
		if err != nil {
			return finish(err)
		}
		if clean {
			rep.Validated = true
			return finish(nil)
		}
		if rep.Rounds >= maxRounds {
			return finish(fmt.Errorf("%w: validation kept finding uncopied versions after %d rounds",
				ErrMigrationIncomplete, rep.Rounds))
		}
		rep.Rounds++
		copied, err := c.migrateRound(p)
		if err != nil {
			return finish(err)
		}
		rep.Versions += copied.versions
		rep.Bytes += copied.bytes
	}
}

// migrateTally counts one catch-up round's work.
type migrateTally struct {
	versions int
	bytes    int64
}

// migrateRound copies every source version the destination lacks, in
// ascending version order. Returns the tally; an error aborts the round
// (shutdown, or a copy that failed through every retry).
func (c *Client) migrateRound(p MigrationParams) (migrateTally, error) {
	var tally migrateTally
	for _, id := range c.p.Store.IDs() {
		if err := c.liveErr(); err != nil {
			return tally, err
		}
		if p.Dest.Has(id) {
			continue
		}
		size, err := c.p.Store.Size(id)
		if err != nil {
			continue // scrubbed or deleted underneath us; next round re-lists
		}
		if err := c.migrateCopy(p, id, size); err != nil {
			if isShutdownErr(err) {
				return tally, err
			}
			c.rec.MigrationFailure()
			return tally, fmt.Errorf("core: migrating version %d: %w", id, err)
		}
		tally.versions++
		tally.bytes += size
	}
	return tally, nil
}

// migrateCopy moves one version: charge the fabric path (chunk-pipelined
// when the client streams chunked), then a verified read from the source
// store and a durable put on the successor — all under the client's
// retry policy, with the injection hook consulted per attempt.
func (c *Client) migrateCopy(p MigrationParams, id, size int64) error {
	start := c.clk.Now()
	err := c.retryIO("migrate", fmt.Sprintf("version %d copy", id), func() error {
		if p.FaultHook != nil {
			if err := p.FaultHook(id, size); err != nil {
				return err
			}
		}
		if err := c.cross(p.Path, size); err != nil {
			return err
		}
		data, err := c.p.Store.Get(id)
		if err != nil {
			return err
		}
		if err := p.Dest.Put(id, data); err != nil && err != ckptstore.ErrExists {
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.rec.MigrationCopy(size)
	c.rec.ObserveDuration(metrics.HistMigrateCopy, c.clk.Now()-start)
	c.lifecycle(ID(id), trace.LMigrated, "", "")
	return nil
}

// migrateValidate byte-compares every source version against the
// successor's copy. Returns clean=false when an uncopied version
// appeared (another catch-up round is needed); a read failure or a
// mismatch is a definitive error — the stores' CRC layer makes a Get
// either correct bytes or an explicit failure, so a mismatch here means
// the two stores genuinely diverged.
func (c *Client) migrateValidate(p MigrationParams) (clean bool, err error) {
	for _, id := range c.p.Store.IDs() {
		if err := c.liveErr(); err != nil {
			return false, err
		}
		if !p.Dest.Has(id) {
			return false, nil
		}
		src, err := c.p.Store.Get(id)
		if err != nil {
			return false, fmt.Errorf("core: validating migration of version %d: source read: %w", id, err)
		}
		dst, err := p.Dest.Get(id)
		if err != nil {
			return false, fmt.Errorf("core: validating migration of version %d: successor read: %w", id, err)
		}
		if !bytes.Equal(src, dst) {
			return false, fmt.Errorf("%w: version %d differs on the successor", ErrMigrationIncomplete, id)
		}
	}
	return true, nil
}
