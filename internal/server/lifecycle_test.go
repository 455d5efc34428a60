package server

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"rfidraw/internal/engine"
	"rfidraw/internal/obs"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// lifecycleIngest is how many merged reports one "ingest" step offers.
// Short on purpose: the interleaving test runs 512 sequences, and under
// -race the prefix, not the sequence set, is what shrinks.
const lifecycleIngest = 24

const lifecycleID = "lc"

// lifecycleSub is one subscriber the interleaving test attached, with
// what it has drained so far.
type lifecycleSub struct {
	sub      *Subscriber
	sess     *Session
	detached bool
	closed   bool
	last     string
}

// lifecycleRun drives one verb sequence against a fresh WAL registry and
// checks the lifecycle invariants after every step.
type lifecycleRun struct {
	t       *testing.T
	seq     string
	reg     *Registry
	reports []rfid.Report
	cursor  int
	subs    []*lifecycleSub
	head    uint64
	// parked is the gob of the last park's retrace, kept while no report
	// has been ingested since: the next park must retrace to it exactly.
	parked []byte
}

var lifecycleVerbs = []struct {
	name string
	do   func(*lifecycleRun)
}{
	{"attach", (*lifecycleRun).attach},
	{"detach", (*lifecycleRun).detach},
	{"ingest", (*lifecycleRun).ingest},
	{"drain", (*lifecycleRun).drain},
	{"park", (*lifecycleRun).park},
	{"resume", (*lifecycleRun).resume},
	{"expire", (*lifecycleRun).expire},
	{"delete", (*lifecycleRun).delete},
}

// attach binds a subscriber to whatever entry holds the ID: a catch-up
// replay on a recovered entry, and alternately a live or a catch-up
// subscriber on a live one.
func (lr *lifecycleRun) attach() {
	s, ok := lr.reg.Get(lifecycleID)
	if !ok {
		return
	}
	var sub *Subscriber
	var err error
	if s.Recovered() || len(lr.subs)%2 == 1 {
		sub, err = s.SubscribeFrom(0, 1<<12)
	} else {
		sub, err = s.Subscribe(1 << 12)
	}
	if err == nil {
		lr.subs = append(lr.subs, &lifecycleSub{sub: sub, sess: s})
	}
}

func (lr *lifecycleRun) detach() {
	for i := len(lr.subs) - 1; i >= 0; i-- {
		if ls := lr.subs[i]; !ls.detached && !ls.closed {
			ls.sub.Close()
			ls.detached = true
			return
		}
	}
}

func (lr *lifecycleRun) ingest() {
	s, ok := lr.reg.Get(lifecycleID)
	if !ok {
		return
	}
	end := min(lr.cursor+lifecycleIngest, len(lr.reports))
	for ; lr.cursor < end; lr.cursor++ {
		if s.Offer(lr.reports[lr.cursor]) != nil {
			return
		}
		lr.parked = nil
	}
}

func (lr *lifecycleRun) drain() {
	if s, ok := lr.reg.Get(lifecycleID); ok {
		s.Flush()
	}
}

func (lr *lifecycleRun) park() {
	before := lr.state()
	if lr.reg.Park(lifecycleID) == nil && before == stateLive {
		lr.checkParked()
	}
}

func (lr *lifecycleRun) resume() { lr.reg.Resume(lifecycleID) }

func (lr *lifecycleRun) expire() {
	before := lr.state()
	lr.reg.ExpireIdle(time.Now().Add(time.Hour), time.Minute)
	if before == stateLive && lr.state() == stateRecovered {
		lr.checkParked()
	}
}

func (lr *lifecycleRun) delete() { lr.reg.Remove(lifecycleID) }

// state is the lifecycle state of the entry holding the ID (closed when
// there is none).
func (lr *lifecycleRun) state() sessionState {
	if s, ok := lr.reg.Get(lifecycleID); ok {
		return s.lifecycle()
	}
	return stateClosed
}

// checkParked retraces a freshly parked record and holds it to the
// previous park's retrace when nothing was ingested in between.
func (lr *lifecycleRun) checkParked() {
	s, _ := lr.reg.Get(lifecycleID)
	res, _, err := s.Retrace(nil)
	if err != nil {
		lr.t.Fatalf("%s: retrace of a parked record: %v", lr.seq, err)
	}
	var enc []byte
	for _, r := range res {
		enc = append(enc, r.Tag...)
		if r.Err != nil {
			enc = append(enc, r.Err.Error()...)
		} else {
			enc = append(enc, gobBytes(lr.t, r.Result)...)
		}
	}
	if lr.parked != nil && !bytes.Equal(lr.parked, enc) {
		lr.t.Fatalf("%s: park → resume → park with no ingest retraced differently", lr.seq)
	}
	lr.parked = enc
}

// drainSub empties a subscriber's queue, blocking until the queue closes
// when wait is set.
func (lr *lifecycleRun) drainSub(ls *lifecycleSub, wait bool) {
	timeout := time.After(10 * time.Second)
	for !ls.closed {
		if !wait {
			select {
			case ev, ok := <-ls.sub.Events():
				lr.observe(ls, ev, ok)
				continue
			default:
				return
			}
		}
		select {
		case ev, ok := <-ls.sub.Events():
			lr.observe(ls, ev, ok)
		case <-timeout:
			lr.t.Fatalf("%s: subscriber of a closed session never ended", lr.seq)
		}
	}
}

func (lr *lifecycleRun) observe(ls *lifecycleSub, ev Event, ok bool) {
	if !ok {
		ls.closed = true
		if ls.last != "end" {
			lr.t.Fatalf("%s: subscriber queue closed after %q, not \"end\"", lr.seq, ls.last)
		}
		return
	}
	ls.last = ev.Type
}

// check asserts the lifecycle invariants at an intermediate state.
func (lr *lifecycleRun) check(step string) {
	r := lr.reg
	r.mu.Lock()
	live, recovered, count := 0, 0, r.live
	for _, s := range r.sessions {
		switch s.lifecycle() {
		case stateLive:
			live++
		case stateRecovered:
			recovered++
		default:
			lr.t.Errorf("%s after %s: table entry in state %d", lr.seq, step, s.lifecycle())
		}
	}
	r.mu.Unlock()
	if active := r.metrics.SessionsActive.Load(); count != live || active != int64(live) {
		lr.t.Fatalf("%s after %s: r.live %d, sessions_active %d, live entries %d", lr.seq, step, count, active, live)
	}
	if retained := r.metrics.SessionsRetained.Load(); retained != int64(recovered) {
		lr.t.Fatalf("%s after %s: sessions_retained %d, recovered entries %d", lr.seq, step, retained, recovered)
	}
	if s, ok := r.Get(lifecycleID); ok {
		if h := s.WALSeq(); h < lr.head {
			lr.t.Fatalf("%s after %s: WAL head went back %d -> %d", lr.seq, step, lr.head, h)
		} else {
			lr.head = h
		}
	}
	for _, ls := range lr.subs {
		if !ls.detached {
			lr.drainSub(ls, ls.sess.lifecycle() == stateClosed)
		}
	}
}

// TestLifecycleInterleavings enumerates every three-step sequence over
// the lifecycle verbs (8³ = 512), each on a fresh WAL registry holding
// one live session, and checks the invariants after every step, not
// only at the end: the live count and the active/retained gauges match
// the table, every subscriber queue that closes without a detach ends
// with "end", the WAL head never goes back, and a park → resume → park
// round trip with no ingest retraces gob-byte-identically.
func TestLifecycleInterleavings(t *testing.T) {
	run, _ := scenario(t)
	reports := realtime.MergeStreams(run.ReportsRF...)
	n := len(lifecycleVerbs)
	for code := 0; code < n*n*n; code++ {
		steps := []int{code / (n * n), code / n % n, code % n}
		names := make([]string, len(steps))
		for i, v := range steps {
			names[i] = lifecycleVerbs[v].name
		}
		store, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reg, err := NewRegistry(RegistryConfig{
			NewEngine: recordingFactory(t), NewReplayer: testReplayerFactory(t),
			WAL: store, NoRecognize: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		lr := &lifecycleRun{t: t, seq: strings.Join(names, ","), reg: reg, reports: reports}
		if _, err := reg.Open(SessionSpec{ID: lifecycleID, Sweep: perTagSweep(run)}); err != nil {
			t.Fatal(err)
		}
		// Start from a session that has logged something, so park and
		// expiry can retain it from the first step on.
		lr.ingest()
		lr.drain()
		lr.check("open")
		for i, v := range steps {
			lifecycleVerbs[v].do(lr)
			lr.check(names[i])
		}
		// Registry close ends every session: no subscriber the test kept
		// may be left bound without an "end".
		reg.Close()
		for _, ls := range lr.subs {
			if !ls.detached {
				lr.drainSub(ls, true)
			}
		}
	}
}

// TestReleasedSessionsFreeEngines: a session ended by DELETE, by a park
// and by idle expiry of a durable session must stop pinning its engine.
// The registry entry is dropped or replaced by a recovered successor
// built from a copied record, so nothing reachable holds the closed
// session.
func TestReleasedSessionsFreeEngines(t *testing.T) {
	run, _ := scenario(t)
	reg := walRegistry(t, t.TempDir())
	prefix := realtime.MergeStreams(run.ReportsRF...)[:400]
	for _, how := range []struct {
		id  string
		end func()
	}{
		{"deleted", func() { reg.Remove("deleted") }},
		{"parked", func() { reg.Park("parked") }},
		{"expired", func() { reg.ExpireIdle(time.Now().Add(time.Hour), time.Minute) }},
	} {
		eng := openEngine(t, reg, how.id, perTagSweep(run), prefix)
		how.end()
		if !collected(eng) {
			t.Errorf("%s session still pins its engine", how.id)
		}
	}
	for _, id := range []string{"parked", "expired"} {
		if s, ok := reg.Get(id); !ok || !s.Recovered() {
			t.Errorf("%s session not recovered", id)
		}
	}
}

// openEngine opens a session, feeds it and returns a weak pointer to its
// engine, leaving no strong reference to the session behind.
func openEngine(t *testing.T, reg *Registry, id string, sweep time.Duration, reps []rfid.Report) weak.Pointer[engine.Engine] {
	t.Helper()
	sess, err := reg.Open(SessionSpec{ID: id, Sweep: sweep})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		if err := sess.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	return weak.Make(sess.eng) // the pump built it before acking the flush
}

func collected(p weak.Pointer[engine.Engine]) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		if p.Value() == nil {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// TestCatchupTeardownEndsWithEnd: deleting a session while a ?from
// catch-up is still replaying into a never-read queue cancels the
// replay, and the stream still ends with "end", so the consumer can
// tell a teardown from a cut connection.
func TestCatchupTeardownEndsWithEnd(t *testing.T) {
	run, _ := scenario(t)
	reg := walRegistry(t, t.TempDir())
	sess, err := reg.Open(SessionSpec{ID: "torn", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, run, sess)
	sub, err := sess.SubscribeFrom(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); len(sub.Events()) < 4; {
		if time.Now().After(deadline) {
			t.Fatal("catch-up replay never filled the queue")
		}
		time.Sleep(time.Millisecond)
	}
	if !reg.Remove("torn") {
		t.Fatal("delete failed")
	}
	var last Event
	for ev := range sub.Events() {
		last = ev
	}
	if last.Type != "end" {
		t.Fatalf("catch-up cancelled by delete ended with %q, want \"end\"", last.Type)
	}
}

// TestEngineBuildFailureCounted: a session whose engine cannot be built
// records the failure once on its timeline and counts every report it
// then drops in rfidrawd_reports_dropped_total.
func TestEngineBuildFailureCounted(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{
		NoRecognize: true,
		NewEngine: func(time.Duration, string, *vote.SearchConfig, func(engine.Update)) (*engine.Engine, error) {
			return nil, errors.New("no deployment")
		},
	})
	sess, err := reg.Open(SessionSpec{ID: "broken", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	reps := realtime.MergeStreams(run.ReportsRF...)[:10]
	for _, rep := range reps {
		if err := sess.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	// A reader reconnect re-announces the cadence: no second record.
	if err := sess.announceSweep(perTagSweep(run)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Metrics().ReportsDropped.Load(); got != int64(len(reps)) {
		t.Fatalf("reports dropped = %d, want %d", got, len(reps))
	}
	failures := 0
	for _, ev := range sess.Events() {
		if ev.Type == obs.EventEngineFailed {
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("timeline holds %d engine failures, want 1", failures)
	}
}
