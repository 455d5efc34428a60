package engine

import (
	"errors"
	"sort"

	"rfidraw/internal/core"
	"rfidraw/internal/rfid"
	"rfidraw/internal/vote"
)

// Replayer re-runs a canonical resequenced report stream — a session's
// write-ahead log — through the exact live pipeline, synchronously on
// the caller's goroutine. It shares the sharded engine's per-tag tag set
// (same tracker construction from the same Config knobs, same offer,
// flush and result code) minus the scheduler, so replaying a log
// reproduces the live session's per-tag output bit for bit: the sharded
// engine and the Replayer are the third and fourth schedulers over the
// one tracing core, after batch and streaming.
//
// A Replayer is single-goroutine and single-use: feed Offer/Flush in
// log order, then read Results.
type Replayer struct {
	sys  *core.System
	tags *tagSet

	// OnUpdate, when set, receives each tag's new positions inline from
	// Offer/Flush (the catch-up feeder uses it; retrace only needs
	// Results).
	OnUpdate func(Update)
}

// NewReplayer builds a replayer from the same Config an Engine takes.
// Shards, BatchSize and Config.OnUpdate are ignored (replay is
// synchronous; set Replayer.OnUpdate instead); System or
// Deployment/Core, SweepInterval and the per-tag tracker knobs mean
// exactly what they mean for a live engine. Set RecordTrace when
// Results must materialize batch-equivalent TraceResults.
func NewReplayer(cfg Config) (*Replayer, error) {
	if cfg.SweepInterval <= 0 {
		return nil, errors.New("engine: Config.SweepInterval required for replay")
	}
	sys, err := cfg.system()
	if err != nil {
		return nil, err
	}
	return &Replayer{sys: sys, tags: newTagSet(&cfg, sys, vote.NewScratch())}, nil
}

// System exposes the replayer's positioning system.
func (r *Replayer) System() *core.System { return r.sys }

// Offer replays one report (in log order). A tag that failed terminally
// drops its reports, exactly as on a shard.
func (r *Replayer) Offer(rep rfid.Report) error {
	r.tags.offer(rep, r.OnUpdate)
	return nil
}

// Flush replays a pump drain: every tag's current sweep closes, exactly
// as an engine Flush does live. Safe to call repeatedly (the trackers'
// flush is idempotent), which is what makes a replay that always
// finishes with a Flush equivalent to a log whose last record already
// was one.
func (r *Replayer) Flush() { r.tags.flush(r.OnUpdate) }

// Results materializes each acquired tag's batch-equivalent TraceResult
// (requires Config.RecordTrace), sorted by tag key. Tags that never
// acquired or failed terminally are reported with their error.
func (r *Replayer) Results() []TagResult {
	out := r.tags.results()
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// Positions reports how many positions each tag emitted during replay.
func (r *Replayer) Positions() map[string]int { return r.tags.positions() }
