package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rfidraw"
	"rfidraw/internal/geom"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/server"
	"rfidraw/internal/traj"
)

// planeDistanceM matches the simulator's default writing-plane distance.
const planeDistanceM = 2

// apiTimeout bounds every wait on the daemon, so a stuck daemon fails
// the run instead of hanging it.
const apiTimeout = 30 * time.Second

// daemon is the in-process rfidrawd under test. The load generator
// reaches it only through its TCP ingest gateway and HTTP API.
type daemon struct {
	sys *rfidraw.System
	srv *rfidraw.Server
	api *server.Client
	// streamBytes counts stream response bytes received.
	streamBytes atomic.Int64
}

// startDaemon builds the System and brings the server to listening on
// loopback with default settings; the returned duration is that set-up.
func startDaemon(dataDir string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	sys, err := rfidraw.New(rfidraw.Config{PlaneDistanceM: planeDistanceM})
	if err != nil {
		return nil, 0, err
	}
	srv, err := sys.NewServer(rfidraw.ServeConfig{
		HTTPAddr:   "127.0.0.1:0",
		IngestAddr: "127.0.0.1:0",
		DataDir:    dataDir,
	})
	if err == nil {
		err = srv.Start()
	}
	if err != nil {
		sys.Close()
		return nil, 0, err
	}
	setup := time.Since(t0)
	d := &daemon{sys: sys, srv: srv, api: &server.Client{BaseURL: "http://" + srv.HTTPAddr(), Ingest: srv.IngestAddr()}}
	return d, setup, nil
}

func (d *daemon) close() {
	d.srv.Close()
	d.sys.Close()
}

// setupDaemon starts the daemon n times, keeps the last and returns
// every set-up time in seconds.
func setupDaemon(dataDir string, n int) (*daemon, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		d, setup, err := startDaemon(dataDir)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setup.Seconds())
		if i == n-1 {
			return d, setups, nil
		}
		d.close()
	}
}

// sessionInfo is the part of GET /v1/sessions/{id} the generator reads.
type sessionInfo struct {
	Reports int64 `json:"reports"`
	Points  int64 `json:"points"`
	// Tags carries each tag's count of points emitted live.
	Tags []struct {
		Tag       string `json:"tag"`
		Positions int    `json:"positions"`
	} `json:"tags"`
}

func (d *daemon) info(ctx context.Context, id string) (sessionInfo, error) {
	var info sessionInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.api.BaseURL+"/v1/sessions/"+id, nil)
	if err != nil {
		return info, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("get session %s: %s", id, resp.Status)
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// waitIngested polls until the session's pump has taken every report
// sent, so a drain covers all of them.
func (d *daemon) waitIngested(ctx context.Context, id string, sent int) error {
	for {
		info, err := d.info(ctx, id)
		if err != nil {
			return err
		}
		if info.Reports >= int64(sent) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("session %s ingested %d of %d reports: %w", id, info.Reports, sent, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// received is one stream event as the generator saw it.
type received struct {
	tag  string
	t    time.Duration
	x, z float64
	at   time.Time
}

// stream is the phase's one subscriber: it decodes the NDJSON event
// stream, the default encoding, on its own goroutine and publishes
// progress for the sender.
type stream struct {
	body io.ReadCloser
	done chan struct{}
	// mu guards what the reader goroutine collects.
	mu     sync.Mutex
	points []received
	glyphs int
	drops  int
	err    error
	// count (points delivered or dropped) and maxT (newest point's
	// stream time) let the sender pace itself without the lock.
	count    atomic.Int64
	maxT     atomic.Int64
	progress chan struct{}
}

func (d *daemon) subscribe(ctx context.Context, id string) (*stream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.api.BaseURL+"/v1/sessions/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe %s: %s", id, resp.Status)
	}
	s := &stream{body: resp.Body, done: make(chan struct{}), progress: make(chan struct{}, 1)}
	s.maxT.Store(-1)
	go s.read(&countingReader{r: resp.Body, n: &d.streamBytes})
	return s, nil
}

func (s *stream) read(r io.Reader) {
	defer close(s.done)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			s.fail(err)
			return
		}
		s.mu.Lock()
		switch ev.Type {
		case "point":
			s.points = append(s.points, received{tag: ev.Tag, t: ev.T, x: ev.X, z: ev.Z, at: time.Now()})
			s.maxT.Store(max(s.maxT.Load(), int64(ev.T)))
			s.count.Add(1)
		case "glyph":
			s.glyphs++
		case "drop":
			s.drops += ev.Dropped
			s.count.Add(int64(ev.Dropped))
		}
		s.mu.Unlock()
		select {
		case s.progress <- struct{}{}:
		default:
		}
		if ev.Type == "end" {
			return
		}
	}
	if err := sc.Err(); err != nil {
		s.fail(err)
	}
}

func (s *stream) fail(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// waitCount waits until n points (delivered or dropped) have arrived.
func (s *stream) waitCount(ctx context.Context, n int64) error {
	for s.count.Load() < n {
		select {
		case <-s.progress:
		case <-s.done:
			if s.count.Load() < n {
				return fmt.Errorf("stream ended after %d of %d points", s.count.Load(), n)
			}
		case <-ctx.Done():
			return fmt.Errorf("stream delivered %d of %d points: %w", s.count.Load(), n, ctx.Err())
		}
	}
	return nil
}

// take hands the points received so far to the caller.
func (s *stream) take() []received {
	s.mu.Lock()
	defer s.mu.Unlock()
	pts := s.points
	s.points = nil
	return pts
}

// finish waits for the reader goroutine after the session's deletion
// ended the stream.
func (s *stream) finish() error {
	select {
	case <-s.done:
	case <-time.After(apiTimeout):
		s.body.Close()
		<-s.done
		return errors.New("stream did not end after session delete")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// tagRun is one writer's outcome in a phase.
type tagRun struct {
	points int     // points the session emitted for the tag
	errCM  float64 // median error against ground truth; valid when scored
	scored bool
}

// phase is one session's run: what was sent, the calls made and what
// came back. Laps drop their reports once sent, so the live heap read at
// the end is the daemon's, not the generator's.
type phase struct {
	laps        []lap
	reports     int
	firstSend   time.Time
	sendDone    time.Time
	lastPoint   time.Time
	drainIssued time.Time
	tags        []tagRun
	pointLat    []float64 // ms from computable to receipt, paced only
	firstLat    []float64 // ms from first scheduled send to first point, paced only
	held        int       // points only the drain released, paced only
	lag         []float64 // ms each report went out after its due time, paced only
	points      int
	glyphs      int
	drops       int
	createMs    float64
	drainMs     float64
	deleteMs    float64
	apiCalls    int
	heapMB      float64
}

// load describes one open-loop session's traffic.
type load struct {
	// first is the first lap sent and laps how many; 0 laps (paced
	// only) sends the laps whose schedule ends within dur.
	first, laps int
	// pace is how much faster than real time the schedule runs; 0 sends
	// unpaced, at most window of stream time beyond the newest point
	// received.
	pace   float64
	dur    time.Duration
	window time.Duration
	// heap reads the live heap before the session is deleted.
	heap bool
}

// more reports whether lap i is still to be sent.
func (ld load) more(in *input, i int, sch schedule) bool {
	if ld.laps > 0 {
		return i < ld.first+ld.laps
	}
	return sch.due(in.lapOffset(i+1)-in.lapOffset(ld.first)).Sub(sch.start) <= ld.dur
}

// add folds another session's outcome into p; the heap reading is the
// latest one.
func (p *phase) add(q *phase) {
	p.laps = append(p.laps, q.laps...)
	p.reports += q.reports
	p.tags = append(p.tags, q.tags...)
	p.pointLat = append(p.pointLat, q.pointLat...)
	p.firstLat = append(p.firstLat, q.firstLat...)
	p.lag = append(p.lag, q.lag...)
	p.held += q.held
	p.points += q.points
	p.glyphs += q.glyphs
	p.drops += q.drops
	p.heapMB = q.heapMB
}

// openLoop runs one session of an open-loop workload, its stream
// starting at time 0: create, subscribe, send, drain, delete.
func (d *daemon) openLoop(ctx context.Context, in *input, ld load) (p *phase, err error) {
	ctx, cancel := context.WithTimeout(ctx, ld.dur+apiTimeout)
	defer cancel()
	p = &phase{}
	t0 := time.Now()
	id, err := d.api.CreateSession(ctx, server.SessionSpec{Sweep: in.sweep})
	p.apiCalls++
	if err != nil {
		return p, fmt.Errorf("create session: %w", err)
	}
	p.createMs = ms(time.Since(t0))
	var st *stream
	defer func() {
		if err != nil {
			// Best effort: the run already failed, and deleting the
			// session ends its stream.
			_ = d.api.DeleteSession(context.Background(), id)
			if st != nil {
				st.body.Close()
				<-st.done
			}
		}
	}()
	st, err = d.subscribe(ctx, id)
	p.apiCalls++
	if err != nil {
		return p, err
	}
	rs, err := d.api.DialIngest(id, readerwire.Hello{Proto: readerwire.ProtoVersion, AntennaCount: 4, SweepInterval: in.sweep})
	p.apiCalls++
	if err != nil {
		return p, fmt.Errorf("dial ingest: %w", err)
	}
	var sch schedule
	if ld.pace > 0 {
		sch = schedule{start: time.Now().Add(5 * time.Millisecond), pace: ld.pace}
		err = p.sendPaced(rs, in, ld, sch)
	} else {
		err = p.sendUnpaced(rs, in, ld, st)
	}
	if cerr := rs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return p, fmt.Errorf("send: %w", err)
	}
	p.sendDone = time.Now()
	if err = d.drain(ctx, id, p); err != nil {
		return p, err
	}
	info, err := d.info(ctx, id)
	p.apiCalls++
	if err != nil {
		return p, err
	}
	if err = st.waitCount(ctx, info.Points); err != nil {
		return p, err
	}
	p.collect(in, st.take(), sch)
	if ld.heap {
		p.heapMB = liveHeapMB()
	}
	t0 = time.Now()
	err = d.api.DeleteSession(ctx, id)
	p.apiCalls++
	if err != nil {
		return p, fmt.Errorf("delete session: %w", err)
	}
	p.deleteMs = ms(time.Since(t0))
	err = st.finish()
	p.glyphs, p.drops = st.glyphs, st.drops
	return p, err
}

// drain waits until the pump has every report, then drains the session
// so each tag's last open sweep closes.
func (d *daemon) drain(ctx context.Context, id string, p *phase) error {
	if err := d.waitIngested(ctx, id, p.reports); err != nil {
		return err
	}
	p.apiCalls++
	p.drainIssued = time.Now()
	if err := d.api.DrainSession(ctx, id); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	p.drainMs = ms(time.Since(p.drainIssued))
	return nil
}

// sendPaced sends each report at its scheduled time, never waiting for
// the daemon, and records how late each went out.
func (p *phase) sendPaced(rs *server.ReaderStream, in *input, ld load, sch schedule) error {
	p.firstSend = time.Now()
	for i := ld.first; ld.more(in, i, sch); i++ {
		l := in.lap(i, in.lapOffset(ld.first))
		for _, rep := range l.reports {
			due := sch.due(rep.Time)
			if wait := time.Until(due); wait > 0 {
				if err := rs.Flush(); err != nil {
					return err
				}
				time.Sleep(wait)
			}
			p.lag = append(p.lag, ms(time.Since(due)))
			if err := rs.Send(rep); err != nil {
				return err
			}
		}
		p.sent(l)
	}
	return rs.Flush()
}

// sendUnpaced sends laps as fast as the daemon keeps up, staying within
// the load's window of stream time ahead of the newest point received
// so the backlog stays bounded.
func (p *phase) sendUnpaced(rs *server.ReaderStream, in *input, ld load, st *stream) error {
	p.firstSend = time.Now()
	base := in.lapOffset(ld.first)
	for i := ld.first; ld.more(in, i, schedule{}); i++ {
		l := in.lap(i, base)
		for _, rep := range l.reports {
			if int64(rep.Time-ld.window) > st.maxT.Load() {
				if err := rs.Flush(); err != nil {
					return err
				}
				// A lap whose tags never produce a point must not stall
				// the phase: give up waiting after a second.
				for wait := time.Now(); int64(rep.Time-ld.window) > st.maxT.Load() && time.Since(wait) < time.Second; {
					select {
					case <-st.progress:
					case <-time.After(time.Millisecond):
					}
				}
			}
			if err := rs.Send(rep); err != nil {
				return err
			}
		}
		p.sent(l)
	}
	return rs.Flush()
}

// sent records a lap as sent and drops its reports.
func (p *phase) sent(l lap) {
	p.reports += len(l.reports)
	l.reports = nil
	p.laps = append(p.laps, l)
}

// collect assigns the received points to their tags, scores each tag
// against ground truth and computes the phase's latencies.
func (p *phase) collect(in *input, pts []received, sch schedule) {
	type ref struct{ li, k int }
	byTag := map[string]ref{}
	for li, l := range p.laps {
		for k, e := range l.epcs {
			byTag[e.String()] = ref{li, k}
		}
	}
	tracks := make([][][]traj.Point, len(p.laps))
	firstAt := make([][]time.Time, len(p.laps))
	for li, l := range p.laps {
		tracks[li] = make([][]traj.Point, len(l.epcs))
		firstAt[li] = make([]time.Time, len(l.epcs))
	}
	for _, r := range pts {
		ref, ok := byTag[r.tag]
		if !ok {
			continue // not a tag of this phase
		}
		l := &p.laps[ref.li]
		if len(tracks[ref.li][ref.k]) == 0 {
			firstAt[ref.li][ref.k] = r.at
		}
		tracks[ref.li][ref.k] = append(tracks[ref.li][ref.k], traj.Point{T: r.t - l.offset, Pos: geom.Vec2{X: r.x, Z: r.z}})
		p.lastPoint = r.at
		if sch.pace > 0 {
			if r.at.After(p.drainIssued) {
				p.held++
			} else {
				p.pointLat = append(p.pointLat, ms(sch.pointLatency(r.t, in.sweep, r.at)))
			}
		}
	}
	for li, l := range p.laps {
		for k := range l.epcs {
			p.tags = append(p.tags, scoreTag(l.truths[k], tracks[li][k]))
			if sch.pace > 0 && len(tracks[li][k]) > 0 {
				p.firstLat = append(p.firstLat, ms(firstAt[li][k].Sub(sch.due(l.first[k]))))
			}
		}
	}
	p.points = len(pts)
}

// scoreTag is one tag's outcome: its point count and median error.
func scoreTag(truth traj.Trajectory, pts []traj.Point) tagRun {
	tr := tagRun{points: len(pts)}
	if len(pts) > 0 {
		e, err := traj.MedianError(truth, traj.Trajectory{Points: pts}, traj.AlignInitial, 64)
		if err == nil {
			tr.errCM, tr.scored = e*100, true
		}
	}
	return tr
}

// cycle is one durable-retrace round trip.
type cycle struct {
	phase
	ingest    time.Duration // first send to drain done
	retraceMs []float64
	// identical is false when two retraces over the same record differ.
	identical bool
	// tagErrs are the per-tag errors of the first retrace: each is a tag
	// the retrace returned no trajectory for.
	tagErrs []string
}

// durableCycle runs one closed-loop cycle on lap i: create, send the
// lap unpaced with no subscriber, drain, retrace twice, delete. A tag's
// point count is what the session emitted live, read from the session
// after the drain; its error is scored on the retraced trajectory.
func (d *daemon) durableCycle(ctx context.Context, in *input, i int, measureHeap bool) (c *cycle, err error) {
	ctx, cancel := context.WithTimeout(ctx, apiTimeout)
	defer cancel()
	c = &cycle{identical: true}
	l := in.lap(i, in.lapOffset(i))
	t0 := time.Now()
	id, err := d.api.CreateSession(ctx, server.SessionSpec{Sweep: in.sweep})
	c.apiCalls++
	if err != nil {
		return c, fmt.Errorf("create session: %w", err)
	}
	c.createMs = ms(time.Since(t0))
	defer func() {
		if err != nil {
			_ = d.api.DeleteSession(context.Background(), id) // best effort: the run already failed
		}
	}()
	rs, err := d.api.DialIngest(id, readerwire.Hello{Proto: readerwire.ProtoVersion, AntennaCount: 4, SweepInterval: in.sweep})
	c.apiCalls++
	if err != nil {
		return c, fmt.Errorf("dial ingest: %w", err)
	}
	c.firstSend = time.Now()
	for _, rep := range l.reports {
		if err = rs.Send(rep); err != nil {
			break
		}
	}
	if err == nil {
		err = rs.Flush()
	}
	if cerr := rs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return c, fmt.Errorf("send: %w", err)
	}
	c.sent(l)
	if err = d.drain(ctx, id, &c.phase); err != nil {
		return c, err
	}
	c.ingest = time.Since(c.firstSend)
	info, err := d.info(ctx, id)
	c.apiCalls++
	if err != nil {
		return c, err
	}
	live := map[string]int{}
	for _, t := range info.Tags {
		live[t.Tag] = t.Positions
	}
	var first *server.RetraceSummary
	var firstRaw []byte
	for range 2 {
		t0 := time.Now()
		sum, raw, err := d.api.Retrace(ctx, id, "")
		c.apiCalls++
		if err != nil {
			return c, fmt.Errorf("retrace: %w", err)
		}
		c.retraceMs = append(c.retraceMs, ms(time.Since(t0)))
		if first == nil {
			first, firstRaw = sum, raw
		} else if sum.Records == first.Records && !bytes.Equal(raw, firstRaw) {
			c.identical = false
		}
	}
	byTag := map[string][]server.TracePointJSON{}
	for _, rt := range first.Tags {
		if rt.Err == "" {
			byTag[rt.Tag] = rt.Points
		} else {
			c.tagErrs = append(c.tagErrs, fmt.Sprintf("tag %s (%d points live): %s", rt.Tag, live[rt.Tag], rt.Err))
		}
	}
	for k, e := range l.epcs {
		var pts []traj.Point
		for _, pt := range byTag[e.String()] {
			pts = append(pts, traj.Point{T: pt.T, Pos: geom.Vec2{X: pt.X, Z: pt.Z}})
		}
		t := scoreTag(l.truths[k], pts)
		t.points = live[e.String()]
		c.tags = append(c.tags, t)
		c.points += t.points
	}
	if measureHeap {
		c.heapMB = liveHeapMB()
	}
	t0 = time.Now()
	err = d.api.DeleteSession(ctx, id)
	c.apiCalls++
	if err != nil {
		return c, fmt.Errorf("delete session: %w", err)
	}
	c.deleteMs = ms(time.Since(t0))
	return c, nil
}

// liveHeapMB collects garbage and returns the live heap in megabytes.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
