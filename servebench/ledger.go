package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/engine"
	"rfidraw/internal/geom"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/realtime"
	"rfidraw/internal/recognition"
	"rfidraw/internal/rfid"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// The serving layer's stroke rules (server.RegistryConfig defaults): a
// stroke ends after this much stream-time silence or at a leader
// switch, and shorter strokes are not classified.
const (
	glyphGap       = 400 * time.Millisecond
	glyphMinPoints = 8
)

// Span names of the traced replay, one per layer call.
const (
	spanLap      = "lap"
	spanDecode   = "readerwire.decode"
	spanWarmup   = "realtime.warmup"
	spanAcquire  = "realtime.acquire"
	spanTrack    = "realtime.track"
	spanClassify = "recognition.classify"
	spanAppend   = "wal.append"
	spanReplay   = "wal.replay"
	spanReplayer = "replay.offer"
)

// layerCounts are the exact counts one replay of the traced input
// yields. Every pass over the same input must produce the same counts.
type layerCounts struct {
	reports, tags, points, glyphs int
	warmupReports, trackPoints    int
	attempts, acquired            int
	reacquisitions, evals         int
	retirements, switches         int
	hypotheses                    int // summed over points
	noPoints                      int // tags that never produced a point
	replayFailed                  int // tags the Replayer returned no trajectory for
	walRecords                    int
	walBytes                      int64
	errCM                         []float64
}

// layers replays laps single-threaded through the layers' public
// functions in pipeline order: decode, one tracker per tag configured
// as the engine configures it, stroke classification and, for the
// durable workload, WAL append then WAL replay into engine.Replayer.
// With a nil tracer it records nothing and is the untraced baseline.
type layers struct {
	sys *core.System
	// scratch is shared by every tracker, as an engine shard shares its
	// own among the tags it owns.
	scratch *vote.Scratch
	rec     *recognition.Recognizer
	in      *input
	laps    []lap
	wire    [][]byte   // each lap's reports as readerwire frames
	store   *wal.Store // nil outside the durable workload
}

func newLayers(sys *core.System, in *input, laps []lap, store *wal.Store) (*layers, error) {
	rec, err := recognition.New(nil)
	if err != nil {
		return nil, err
	}
	ly := &layers{sys: sys, scratch: vote.NewScratch(), rec: rec, in: in, laps: laps, store: store}
	for _, l := range laps {
		var buf bytes.Buffer
		w := readerwire.NewWriter(&buf)
		for _, rep := range l.reports {
			if err := w.WriteReport(rep); err != nil {
				return nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		ly.wire = append(ly.wire, buf.Bytes())
	}
	return ly, nil
}

// tagPipe is one tag's tracker and in-progress stroke.
type tagPipe struct {
	id     string
	k      int
	t      *realtime.Tracker
	pts    []traj.Point
	stroke []geom.Vec2
	last   time.Duration
}

func (ly *layers) tracker() (*realtime.Tracker, error) {
	return realtime.NewTracker(realtime.Config{System: ly.sys, SweepInterval: ly.in.sweep, Scratch: ly.scratch})
}

// run replays every lap once.
func (ly *layers) run(tr *tracer) (*layerCounts, error) {
	c := &layerCounts{}
	for li := range ly.laps {
		if err := ly.lap(tr, &ly.laps[li], ly.wire[li], c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (ly *layers) lap(tr *tracer, l *lap, wire []byte, c *layerCounts) error {
	root := tr.begin(spanLap, strconv.Itoa(l.index), -1)
	defer tr.end(root)
	sp := tr.begin(spanDecode, "", root)
	reports, err := decode(wire)
	tr.end(sp)
	if err != nil {
		return err
	}
	c.reports += len(reports)
	pipes := map[rfid.EPC]*tagPipe{}
	var order []*tagPipe
	for k, e := range l.epcs {
		t, err := ly.tracker()
		if err != nil {
			return err
		}
		p := &tagPipe{id: e.String(), k: k, t: t}
		pipes[e] = p
		order = append(order, p)
	}
	for i := range reports {
		if err := ly.offer(tr, root, pipes[reports[i].EPC], c, &reports[i]); err != nil {
			return err
		}
	}
	for _, p := range order {
		if err := ly.offer(tr, root, p, c, nil); err != nil {
			return err
		}
		ly.closeStroke(tr, root, p, c)
		c.tags++
		c.reacquisitions += p.t.Reacquisitions()
		c.evals += p.t.SearchEvals()
		c.retirements += p.t.Retirements()
		c.switches += p.t.LeaderSwitches()
		for i := range p.pts {
			p.pts[i].T -= l.offset
		}
		tag := scoreTag(l.truths[p.k], p.pts)
		if tag.points == 0 {
			c.noPoints++
		} else {
			c.errCM = append(c.errCM, tag.errCM)
		}
	}
	if ly.store != nil {
		return ly.durable(tr, root, l, reports, c)
	}
	return nil
}

func decode(wire []byte) ([]rfid.Report, error) {
	r := readerwire.NewReader(bytes.NewReader(wire))
	var out []rfid.Report
	for {
		msg, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		for ok := true; ok; msg, ok, err = r.NextBuffered() {
			if msg.Report != nil {
				out = append(out, *msg.Report)
			}
		}
		if err != nil {
			return nil, err
		}
	}
}

// offer feeds one report to the tag's tracker, or flushes it when rep
// is nil, in a span named by what the call did: warmup buffering, an
// acquisition attempt, or tracking. State read before and after the
// call tells them apart.
func (ly *layers) offer(tr *tracer, root int, p *tagPipe, c *layerCounts, rep *rfid.Report) error {
	started, buffered, reacq := p.t.Started(), p.t.Buffered(), p.t.Reacquisitions()
	sp := tr.begin(spanWarmup, p.id, root)
	var ps []realtime.Position
	var err error
	if rep != nil {
		ps, err = p.t.Offer(*rep)
	} else {
		ps, err = p.t.Flush()
	}
	kind := spanAcquire
	switch {
	case started:
		kind = spanTrack
		c.trackPoints += len(ps)
	case p.t.Started() || p.t.Reacquisitions() > reacq:
		c.attempts++
		c.acquired++
	case p.t.Buffered() >= realtime.DefaultWarmupSamples && p.t.Buffered() > buffered,
		rep == nil && p.t.Buffered() > 0: // a flush attempts on any prefix
		c.attempts++
	default:
		kind = spanWarmup
		c.warmupReports++
	}
	tr.endAs(sp, kind)
	if err != nil {
		return fmt.Errorf("tag %s: %w", p.id, err)
	}
	for _, pos := range ps {
		if len(p.stroke) > 0 && (pos.Time-p.last > glyphGap || pos.Switched) {
			ly.closeStroke(tr, root, p, c)
		}
		p.stroke = append(p.stroke, pos.Pos)
		p.last = pos.Time
		p.pts = append(p.pts, traj.Point{T: pos.Time, Pos: pos.Pos})
		c.points++
		c.hypotheses += pos.Hypotheses
	}
	return nil
}

// closeStroke classifies a finished stroke the way a session does.
func (ly *layers) closeStroke(tr *tracer, root int, p *tagPipe, c *layerCounts) {
	pts := p.stroke
	p.stroke = nil
	if len(pts) < glyphMinPoints {
		return
	}
	sp := tr.begin(spanClassify, p.id, root)
	_, err := ly.rec.Classify(pts)
	tr.end(sp)
	if err == nil {
		c.glyphs++
	}
}

// durable logs the lap's reports as a session WAL, then replays the log
// into a batch Replayer the way a retrace does.
func (ly *layers) durable(tr *tracer, root int, l *lap, reports []rfid.Report, c *layerCounts) error {
	id := "ledger-" + strconv.Itoa(l.index)
	log, err := ly.store.Create(wal.Meta{ID: id, Created: time.Unix(0, 0), Sweep: ly.in.sweep})
	if err != nil {
		return err
	}
	// The log is scratch: a failure to remove it changes no metric.
	defer ly.store.Remove(id)
	ids := map[rfid.EPC]string{}
	for _, e := range l.epcs {
		ids[e] = e.String()
	}
	seq := uint64(0)
	for _, rep := range reports {
		seq++
		sp := tr.begin(spanAppend, ids[rep.EPC], root)
		err := log.AppendReport(seq, rep)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	seq++
	if err := log.AppendFlush(seq); err != nil {
		return err
	}
	if err := log.Close(seq + 1); err != nil {
		return err
	}
	c.walBytes += log.Bytes()
	rp, err := engine.NewReplayer(engine.Config{System: ly.sys, SweepInterval: ly.in.sweep, RecordTrace: true})
	if err != nil {
		return err
	}
	sp := tr.begin(spanReplay, "", root)
	err = ly.store.Replay(id, 0, func(r wal.Record) error {
		c.walRecords++
		switch r.Type {
		case wal.RecordReport:
			ch := tr.begin(spanReplayer, ids[r.Report.EPC], sp)
			defer tr.end(ch)
			return rp.Offer(r.Report)
		case wal.RecordFlush:
			ch := tr.begin(spanReplayer, "", sp)
			rp.Flush()
			tr.end(ch)
		}
		return nil
	})
	if err == nil {
		ch := tr.begin(spanReplayer, "", sp)
		for _, res := range rp.Results() {
			if res.Err != nil {
				c.replayFailed++
			}
		}
		tr.end(ch)
	}
	tr.end(sp)
	return err
}

// trackersOnly replays the whole traced input through bare per-tag
// trackers: the direct replay the engine's overhead is measured
// against.
func (ly *layers) trackersOnly(all []rfid.Report) (time.Duration, error) {
	t0 := time.Now()
	ts := map[rfid.EPC]*realtime.Tracker{}
	var order []*realtime.Tracker
	for _, rep := range all {
		t := ts[rep.EPC]
		if t == nil {
			var err error
			if t, err = ly.tracker(); err != nil {
				return 0, err
			}
			ts[rep.EPC] = t
			order = append(order, t)
		}
		if _, err := t.Offer(rep); err != nil {
			return 0, err
		}
	}
	for _, t := range order {
		if _, err := t.Flush(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// engineRun streams the whole traced input through an in-process
// engine with the given shard count.
func (ly *layers) engineRun(all []rfid.Report, shards int) (time.Duration, error) {
	t0 := time.Now()
	eng, err := engine.New(engine.Config{System: ly.sys, Shards: shards, SweepInterval: ly.in.sweep})
	if err != nil {
		return 0, err
	}
	if err = eng.OfferAll(all); err == nil {
		err = eng.Flush()
	}
	d := time.Since(t0)
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	return d, err
}

func (ly *layers) allReports() []rfid.Report {
	var all []rfid.Report
	for _, l := range ly.laps {
		all = append(all, l.reports...)
	}
	return all
}
