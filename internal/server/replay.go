package server

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"rfidraw/internal/engine"
	"rfidraw/internal/obs"
	"rfidraw/internal/realtime"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// ReplayerFactory binds a WAL replay to a fresh tracking pipeline. sweep
// is the recorded session's per-tag cadence; search, when non-nil,
// overrides the deployment's SearchConfig (a retrace under different
// tunables — the record-once/re-trace-many use of the log). record asks
// for batch-equivalent TraceResults (retrace); catch-up feeds leave it
// off so replay memory stays bounded.
// geometry names the recorded session's antenna geometry (from the WAL
// meta; "" = default) so the replay positions with the same steering
// tables the live session used.
type ReplayerFactory func(sweep time.Duration, geometry string, search *vote.SearchConfig, record bool) (*engine.Replayer, error)

// SubscribeFrom attaches a catch-up consumer: it is fed the session's
// recorded history replayed from the WAL — points derived from log
// records with sequence ≥ from (0 = everything) — and, on a live
// session, spliced onto the live event stream at the log head without
// gap or duplicate. The splice is pump-mediated: the pump drains (so
// everything emitted live so far is on disk), snapshots the head, and
// parks live events for this subscriber until the replayed prefix has
// been delivered. On a recovered session the replay ends with an "end"
// event instead.
func (s *Session) SubscribeFrom(from uint64, buffer int) (*Subscriber, error) {
	return s.SubscribeFromOpts(from, SubscribeOptions{Buffer: buffer})
}

// SubscribeFromOpts is SubscribeFrom with the full option set (buffer
// size, wire encoding, tier).
func (s *Session) SubscribeFromOpts(from uint64, o SubscribeOptions) (*Subscriber, error) {
	if s.reg.cfg.WAL == nil || s.reg.cfg.NewReplayer == nil {
		return nil, ErrNoWAL
	}
	sub := s.newSubscriber(o)
	sub.catchingUp = true
	sub.cancel = make(chan struct{})
	s.emitMu.Lock()
	recovered := s.state == stateRecovered
	err := s.admitLocked(true)
	if err == nil && recovered {
		s.addSubLocked(sub)
	}
	s.emitMu.Unlock()
	if err != nil {
		return nil, err
	}
	if recovered {
		s.touch() // retention clock: the record is in active use
		go s.runCatchup(sub, from, 0, true)
		return sub, nil
	}
	// Live session: admitted above, now the pump-mediated
	// drain-and-attach (the subscriber limit is re-checked by nobody —
	// a racing attach may briefly overshoot the cap by the number of
	// in-flight catch-ups, which is the usual bounded-staleness of the
	// admission counters).
	req := &catchupReq{sub: sub, head: make(chan uint64, 1)}
	if err := s.enqueue(ingestItem{catchup: req}); err != nil {
		return nil, err
	}
	select {
	case head, ok := <-req.head:
		if !ok {
			return nil, ErrSessionClosed
		}
		go s.runCatchup(sub, from, head, false)
		return sub, nil
	case <-s.pumpDone:
		return nil, ErrSessionClosed
	}
}

// runCatchup is the catch-up subscriber's feeder goroutine: it replays
// the WAL through a fresh pipeline up to head (0 = the whole log),
// delivers the derived points with seq ≥ from, then splices the
// subscriber onto the live stream (or ends it, for recovered sessions).
// It is the sole closer of sub.ch, and every stream it ends, ends with
// "end" unless the consumer itself detached.
func (s *Session) runCatchup(sub *Subscriber, from, head uint64, recovered bool) {
	err := s.feedCatchup(sub, from, head, recovered)
	if err != nil {
		s.logger.Warn("catch-up replay failed", "err", err)
	}
	ended := false
	if err == nil && recovered {
		// A recovered session has no live stream to splice onto: "end"
		// follows the replay, paced by the consumer like the replay.
		select {
		case sub.ch <- Event{Type: "end"}:
			ended = true
		case <-sub.cancel:
		}
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	_, attached := s.subs[sub]
	if attached && err == nil && !recovered {
		// Splice: deliver the live events parked during the replay, then
		// hand the queue over to the broadcast path. Everything parked
		// derives from records past the snapshotted head, so the stream
		// is gapless and duplicate-free across the boundary.
		sub.catchingUp = false
		for _, ev := range sub.pending {
			s.sendLocked(sub, ev)
		}
		sub.pending = nil
		return
	}
	if attached {
		s.removeSubLocked(sub)
	}
	sub.catchingUp = false
	// A failed replay must not splice over a gap, and a teardown that
	// cancelled the replay must not read as a cut connection: both end
	// with "end", queued drop-oldest. A detached consumer gets nothing.
	if !ended && (attached || s.state == stateDraining || s.state == stateClosed) {
		s.sendLocked(sub, Event{Type: "end"})
	}
	close(sub.ch)
}

// feedCatchup replays the log into the subscriber's queue. Sends block
// (the replay is consumer-paced) but abort on detach or session close.
func (s *Session) feedCatchup(sub *Subscriber, from, head uint64, recovered bool) error {
	if head == 0 && !recovered {
		return nil // nothing recorded yet; splice immediately
	}
	sweep := time.Duration(s.sweepNs.Load())
	if sweep <= 0 {
		return nil // no engine was ever built; nothing to replay
	}
	rp, err := s.reg.cfg.NewReplayer(sweep, s.geometry, s.search, false)
	if err != nil {
		return err
	}
	// A T0 catch-up decimates the replayed points in WAL-sequence space
	// (deterministic for any given record) with the live tier's factor;
	// higher tiers replay everything. The tier is fixed at attach for the
	// whole replay — adaptive retuning starts at the live splice.
	decimated := sub.tier == 0
	cancelled := false
	seq := uint64(0)
	rp.OnUpdate = func(u engine.Update) {
		if cancelled {
			return
		}
		for _, p := range u.Positions {
			if seq < from {
				continue
			}
			if decimated && seq%t0DecimateEvery != 0 {
				continue
			}
			select {
			case sub.ch <- pointEvent(u.Tag, p, seq):
			case <-sub.cancel:
				cancelled = true
				return
			}
		}
	}
	err = s.replayLog(rp, head, func(at uint64) error {
		if cancelled {
			return errCatchupCancelled
		}
		seq = at
		return nil
	})
	if cancelled {
		return nil // detach mid-replay is a clean end, not a failure
	}
	return err
}

// replayLog feeds the session's log up to head (0 = all of it) through
// rp: the one WAL replay loop, shared by retrace and catch-up. Report
// records are offered, flush and close records drain, and a final flush
// closes any sweep still open (a no-op when the log already ended on a
// flush, so clean and torn logs replay alike). at runs before each
// record with its sequence number; its error stops the replay.
func (s *Session) replayLog(rp *engine.Replayer, head uint64, at func(seq uint64) error) error {
	err := s.reg.cfg.WAL.Replay(s.ID, head, func(rec wal.Record) error {
		if err := at(rec.Seq); err != nil {
			return err
		}
		switch rec.Type {
		case wal.RecordReport:
			return rp.Offer(rec.Report)
		case wal.RecordFlush, wal.RecordClose:
			rp.Flush()
		}
		return nil
	})
	if err == nil {
		rp.Flush()
	}
	return err
}

var errCatchupCancelled = errors.New("server: catch-up cancelled")

// effectiveSearch resolves a retrace's search: an explicit override
// wins; otherwise the session's own configuration, so a plain retrace of
// a session opened with a search override is byte-identical to its live
// trace rather than silently reverting to the deployment default.
func (s *Session) effectiveSearch(override *vote.SearchConfig) *vote.SearchConfig {
	if override != nil {
		return override
	}
	return s.search
}

// pointEvent converts one replayed position into the event shape the
// live onUpdate path emits, plus its producing log sequence.
func pointEvent(tag string, p realtime.Position, seq uint64) Event {
	return Event{
		Type: "point", Tag: tag, T: p.Time, X: p.Pos.X, Z: p.Pos.Z,
		Confidence: p.Confidence, Hypotheses: p.Hypotheses, Switched: p.Switched,
		Seq: seq,
	}
}

// Retrace replays the session's WAL through a fresh tracking pipeline
// and returns each tag's batch-equivalent TraceResult. With search nil
// the pipeline is configured exactly as the live one, and the results
// are gob-byte-identical to the live trace of the recorded stream (the
// disk round-trip extension of the batch/streaming equivalence gate);
// a non-nil search re-traces the same record under different tunables.
// On a live session the pump drains first, so the retrace covers
// everything ingested before the call.
func (s *Session) Retrace(search *vote.SearchConfig) ([]engine.TagResult, uint64, error) {
	if s.reg.cfg.WAL == nil || s.reg.cfg.NewReplayer == nil {
		return nil, 0, ErrNoWAL
	}
	head := uint64(0)
	if !s.Recovered() {
		// Drain and snapshot the head in one pump step: everything at or
		// below a drain-boundary head is complete and synced on disk,
		// whereas reading walSeq from this goroutine could see a record
		// the pump is mid-write on. A session that closed under us is
		// fine — its log was completed and compacted by the close, so
		// the plain head read is stable.
		h, err := s.drainHead()
		if errors.Is(err, ErrSessionClosed) {
			h = s.walSeq.Load()
		} else if err != nil {
			return nil, 0, err
		}
		head = h
		if head == 0 {
			return nil, 0, fmt.Errorf("server: session %s has recorded nothing", s.ID)
		}
	}
	sweep := time.Duration(s.sweepNs.Load())
	if sweep <= 0 {
		return nil, 0, fmt.Errorf("server: session %s has recorded nothing", s.ID)
	}
	rp, err := s.reg.cfg.NewReplayer(sweep, s.geometry, s.effectiveSearch(search), true)
	if err != nil {
		return nil, 0, err
	}
	var last uint64
	if err := s.replayLog(rp, head, func(seq uint64) error { last = seq; return nil }); err != nil {
		return nil, 0, err
	}
	s.reg.metrics.Retraces.Add(1)
	s.timeline.Record(obs.EventRetrace, "head="+strconv.FormatUint(head, 10))
	s.touch() // retention clock: the record is in active use
	return rp.Results(), last, nil
}

// drainHead asks the pump to drain and report the log head at the drain
// boundary.
func (s *Session) drainHead() (uint64, error) {
	ch := make(chan uint64, 1)
	if err := s.enqueue(ingestItem{flushHead: ch}); err != nil {
		return 0, err
	}
	select {
	case h := <-ch:
		return h, nil
	case <-s.pumpDone:
		return 0, ErrSessionClosed
	}
}

// TraceResults returns the live engine's batch-equivalent per-tag trace
// results (sessions whose engines record traces; equivalence tests). It
// round-trips through the pump, draining first.
func (s *Session) TraceResults() ([]engine.TagResult, error) {
	ch := make(chan []engine.TagResult, 1)
	if err := s.enqueue(ingestItem{results: ch}); err != nil {
		return nil, err
	}
	select {
	case res := <-ch:
		return res, nil
	case <-s.pumpDone:
		return nil, ErrSessionClosed
	}
}

// WALSeq reports the session's current log head sequence (0 when the
// session records nothing).
func (s *Session) WALSeq() uint64 { return s.walSeq.Load() }
