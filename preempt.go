package score

import (
	"errors"
	"fmt"
	"time"

	"score/internal/core"
	"score/internal/fabric"
	"score/internal/faultinject"
)

// Scheduling-events surface: deadline-bounded preemption drain and live
// tier migration. A preemption notice ("this rank is reclaimed in 30s")
// triggers Drain — a triage flush of the not-yet-durable versions
// against the grace window, failing open to explicit loss rather than
// wedging. A planned reclaim with a successor available instead uses
// Sim.MigrateRank to move the rank's durable tier across the fabric
// while the rank keeps running, with a validated cutover.

// PreemptSpec schedules a preemption notice for one rank (or a whole
// node) at a virtual time with a grace window; attach with
// FaultInjector.AddPreempts or build with PreemptRank/PreemptNode. The
// runtime drains at the notice and reclaims (kills) the rank at
// notice+grace regardless of how the drain fared.
type PreemptSpec = faultinject.PreemptSpec

// PreemptRank schedules a preemption notice for the rank on (node, gpu)
// at simulated time at with the given grace window.
var PreemptRank = faultinject.PreemptRank

// PreemptNode schedules a preemption notice for every rank on node.
var PreemptNode = faultinject.PreemptNode

// FaultMigrate is the per-version copy site of a live tier migration.
const FaultMigrate = faultinject.SiteMigrate

// ErrDraining is returned by Checkpoint once a preemption drain has
// begun on the client: the rank is being reclaimed and accepts no new
// checkpoints. Restores keep working.
var ErrDraining = core.ErrDraining

// ErrMigrationIncomplete reports a live migration that could not
// converge to a validated cutover; the successor store must not be
// adopted. Definitive by design: match with errors.Is.
var ErrMigrationIncomplete = core.ErrMigrationIncomplete

// DrainManifest is the complete report of one deadline-bounded drain.
type DrainManifest = core.DrainManifest

// DrainEntry is one version's line in a drain manifest.
type DrainEntry = core.DrainEntry

// DrainOutcome classifies one version's fate in a drain manifest.
type DrainOutcome = core.DrainOutcome

// Drain outcomes, re-exported from the core layer.
const (
	DrainAlreadyDurable = core.DrainAlreadyDurable
	DrainFlushed        = core.DrainFlushed
	DrainDiscarded      = core.DrainDiscarded
	DrainAbandoned      = core.DrainAbandoned
)

// MigrationReport summarizes one live migration.
type MigrationReport = core.MigrationReport

// Drain executes a deadline-bounded preemption drain with the given
// grace window: resident not-yet-durable checkpoints are triage-flushed
// oldest-first against per-link budgets, versions that cannot land in
// time are failed open to explicit loss, and the returned manifest
// reports every live version's outcome. Once called the client rejects
// new checkpoints with ErrDraining for the rest of its life. The
// manifest is also retained for DrainManifest.
func (c *Client) Drain(grace time.Duration) (DrainManifest, error) {
	m, err := c.inner.Drain(grace)
	if err == nil || len(m.Entries) > 0 {
		c.setDrainManifest(m)
	}
	return m, err
}

// Draining reports whether a preemption drain has begun on this client
// (by Drain or by an injector-scheduled preemption notice).
func (c *Client) Draining() bool { return c.inner.Draining() }

// DrainManifest returns the manifest of the client's completed drain,
// whether triggered by Drain or by a scheduled preemption notice
// (faultinject.PreemptRank via WithFaultInjector). ok is false while no
// drain has completed.
func (c *Client) DrainManifest() (m DrainManifest, ok bool) {
	return c.drainManifest, c.drainDone
}

func (c *Client) setDrainManifest(m DrainManifest) {
	c.drainManifest = m
	c.drainDone = true
}

// MigrateRank live-migrates client c's durable SSD tier to a successor
// store on toNode, over the NIC fabric (local NVMe read → local NIC →
// successor NIC → successor NVMe — the partner-copy route), concurrently
// with c's foreground traffic. destDir is the successor node's store
// directory; a client opened on it afterwards recovers the migrated
// versions. The cutover is validated version-by-version: on success the
// report has Validated=true, otherwise the error is definitive. The
// client's fault injector (if any) gates each per-version copy through
// the migrate fault site.
func (s *Sim) MigrateRank(c *Client, toNode int, destDir string) (MigrationReport, error) {
	if toNode < 0 || toNode >= s.cfg.nodes {
		return MigrationReport{}, fmt.Errorf("score: successor node %d out of range [0,%d)", toNode, s.cfg.nodes)
	}
	if toNode == c.node {
		return MigrationReport{}, errors.New("score: migration successor must be a different node")
	}
	if destDir == "" {
		return MigrationReport{}, errors.New("score: migration needs a successor store directory")
	}
	dst, _, err := openStore(destDir, false)
	if err != nil {
		return MigrationReport{}, err
	}
	from := s.tb.Cluster.Nodes[c.node]
	to := s.tb.Cluster.Nodes[toNode]
	var hook func(id, size int64) error
	if inj := c.inj; inj != nil {
		hook = func(id, size int64) error {
			return inj.Decide(faultinject.SiteMigrate, id, size).Err
		}
	}
	return c.inner.Migrate(core.MigrationParams{
		Dest:      dst,
		Path:      fabric.Path{from.NVMe, from.NIC, to.NIC, to.NVMe},
		FaultHook: hook,
	})
}
