package engine

import (
	"fmt"

	"rfidraw/internal/core"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/vote"
)

// tagSet is the one per-tag tracker lifecycle: it builds each tag's
// realtime tracker on first sight, feeds it reports, closes its sweeps
// and turns its state into results and stats. Every engine shard owns
// one and so does every Replayer, so the live and replay schedulers run
// the same per-tag code and cannot diverge. A tagSet is confined to one
// goroutine.
type tagSet struct {
	// tracker is the config every tag's tracker is built from.
	tracker realtime.Config
	tags    map[rfid.EPC]*tagState
	// order is first-seen order: flushes and results walk it, so a
	// tagSet's output never depends on map iteration.
	order []rfid.EPC
}

// tagState is one streamed tag's pipeline.
type tagState struct {
	tracker   *realtime.Tracker
	positions int
	// err is the tag's terminal failure; once set its reports are
	// dropped.
	err error
}

func newTagSet(cfg *Config, sys *core.System, scratch *vote.Scratch) *tagSet {
	return &tagSet{
		tracker: realtime.Config{
			System:           sys,
			SweepInterval:    cfg.SweepInterval,
			MaxPhaseAge:      cfg.MaxPhaseAge,
			WarmupSamples:    cfg.WarmupSamples,
			MaxAcquireBuffer: cfg.MaxAcquireBuffer,
			ReacquireVote:    cfg.ReacquireVote,
			ReacquireWindow:  cfg.ReacquireWindow,
			RecordTrace:      cfg.RecordTrace,
			Scratch:          scratch,
		},
		tags: map[rfid.EPC]*tagState{},
	}
}

// offer feeds one report into its tag's tracker, creating the tracker on
// first sight — a tag appearing mid-stream simply starts its own pipeline
// at its first report. New positions go to onUpdate (may be nil).
func (s *tagSet) offer(rep rfid.Report, onUpdate func(Update)) {
	ts, ok := s.tags[rep.EPC]
	if !ok {
		ts = &tagState{}
		tracker, err := realtime.NewTracker(s.tracker)
		if err != nil {
			ts.err = fmt.Errorf("engine: tag %s: %w", rep.EPC, err)
		} else {
			ts.tracker = tracker
		}
		s.tags[rep.EPC] = ts
		s.order = append(s.order, rep.EPC)
	}
	if ts.err != nil {
		return // tag's pipeline failed terminally; drop its reports
	}
	ps, err := ts.tracker.Offer(rep)
	ts.emit(rep.EPC, ps, onUpdate)
	if err != nil {
		ts.err = fmt.Errorf("engine: tag %s: %w", rep.EPC, err)
	}
}

// flush closes every live tag's current sweep in first-seen order and
// returns the first error. Tracker flushes are idempotent, so repeated
// flushes are harmless.
func (s *tagSet) flush(onUpdate func(Update)) error {
	var first error
	for _, epc := range s.order {
		ts := s.tags[epc]
		if ts.err != nil {
			continue // already failed; reported via stats and results
		}
		ps, err := ts.tracker.Flush()
		ts.emit(epc, ps, onUpdate)
		if err != nil {
			ts.err = fmt.Errorf("engine: tag %s: %w", epc, err)
			if first == nil {
				first = ts.err
			}
		}
	}
	return first
}

// emit counts and forwards a tag's new positions.
func (ts *tagState) emit(epc rfid.EPC, ps []realtime.Position, onUpdate func(Update)) {
	if len(ps) == 0 {
		return
	}
	ts.positions += len(ps)
	if onUpdate != nil {
		onUpdate(Update{Tag: epc.String(), Positions: ps})
	}
}

// results materializes every tag's batch-equivalent outcome (requires
// RecordTrace), in first-seen order. Tags that failed or never acquired
// carry their error.
func (s *tagSet) results() []TagResult {
	out := make([]TagResult, 0, len(s.order))
	for _, epc := range s.order {
		ts := s.tags[epc]
		res := TagResult{Tag: epc.String()}
		switch {
		case ts.err != nil:
			res.Err = ts.err
		case !ts.tracker.Started():
			res.Err = fmt.Errorf("engine: tag %s: never acquired", epc)
		default:
			res.Result, res.Err = ts.tracker.TraceResult()
		}
		out = append(out, res)
	}
	return out
}

// stats snapshots every tag's tracking state, in first-seen order.
func (s *tagSet) stats() []TagStats {
	out := make([]TagStats, 0, len(s.order))
	for _, epc := range s.order {
		ts := s.tags[epc]
		st := TagStats{Tag: epc.String(), Positions: ts.positions, Err: ts.err}
		if ts.tracker != nil {
			st.Started = ts.tracker.Started()
			st.MeanVote = ts.tracker.MeanVote()
			st.Reacquisitions = ts.tracker.Reacquisitions()
			st.Hypotheses = ts.tracker.ActiveHypotheses()
			st.LeaderSwitches = ts.tracker.LeaderSwitches()
			st.Retirements = ts.tracker.Retirements()
			st.Buffered = ts.tracker.Buffered()
			st.SearchEvals = ts.tracker.SearchEvals()
		}
		out = append(out, st)
	}
	return out
}

// positions reports how many positions each tag has emitted.
func (s *tagSet) positions() map[string]int {
	out := make(map[string]int, len(s.tags))
	for epc, ts := range s.tags {
		out[epc.String()] = ts.positions
	}
	return out
}
