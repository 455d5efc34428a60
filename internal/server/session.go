package server

import (
	"container/heap"
	"encoding/json"
	"errors"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rfidraw/internal/engine"
	"rfidraw/internal/geom"
	"rfidraw/internal/obs"
	"rfidraw/internal/rfid"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// Lifecycle and admission errors, mapped onto HTTP statuses by http.go.
var (
	ErrSessionClosed   = errors.New("server: session closed")
	ErrSessionLimit    = errors.New("server: session limit reached")
	ErrSessionExists   = errors.New("server: session already exists")
	ErrSubscriberLimit = errors.New("server: subscriber limit reached")
	ErrBadSessionID    = errors.New("server: invalid session id")
	ErrNoSweep         = errors.New("server: session has no sweep interval yet")
	// ErrNoWAL reports a durability feature (retrace, ?from catch-up) on
	// a registry or session without a write-ahead log.
	ErrNoWAL = errors.New("server: session has no write-ahead log")
	// Control-plane verb errors (park/resume/drain), mapped by control.go.
	ErrUnknownSession = errors.New("server: unknown session")
	ErrNotLive        = errors.New("server: session is not live")
	ErrNotParked      = errors.New("server: session is not parked")
	ErrNotDurable     = errors.New("server: session has recorded nothing durable")
)

// Event is one item of a session's live output stream, serialized as one
// NDJSON line per event on the streaming API.
type Event struct {
	// Type is "point" (a trace point), "glyph" (a recognized stroke),
	// "drop" (the subscriber's queue overflowed and lost N events),
	// "tier" (the subscriber's trace tier changed — adaptive downgrade
	// or recovery), "stroke" (a T2 diagnostic: a stroke closed) or
	// "end" (the session closed; the stream ends after it).
	Type string `json:"type"`
	// Tag identifies the writer (EPC hex) for points and glyphs.
	Tag string `json:"tag,omitempty"`
	// T is the sample's stream time in nanoseconds (points, glyphs).
	T time.Duration `json:"t_ns,omitempty"`
	// X, Z are writing-plane coordinates in metres (points).
	X float64 `json:"x"`
	Z float64 `json:"z"`
	// Glyph is the recognized letter; Dist and Margin carry the DTW
	// classification confidence; Points is the stroke's sample count.
	Glyph  string  `json:"glyph,omitempty"`
	Dist   float64 `json:"dist,omitempty"`
	Margin float64 `json:"margin,omitempty"`
	Points int     `json:"points,omitempty"`
	// Confidence is the leading hypothesis's running mean vote at this
	// point (≤ 0, nearer 0 is better; it collapses on tracking loss),
	// Hypotheses how many candidate hypotheses are still active, and
	// Switched whether leadership changed here — the cursor may jump, so
	// stroke-building consumers should treat it as a pen lift (points).
	Confidence float64 `json:"confidence,omitempty"`
	Hypotheses int     `json:"hypotheses,omitempty"`
	Switched   bool    `json:"switched,omitempty"`
	// Seq, on points delivered by a WAL catch-up replay, is the log
	// sequence number of the report that produced the point; live points
	// omit it. ?from=seq catch-up requests are addressed in this space.
	Seq uint64 `json:"seq,omitempty"`
	// Dropped is how many events the subscriber lost (drop events).
	Dropped int `json:"dropped,omitempty"`
	// Tier and FromTier carry a tier transition (tier events): the
	// subscriber now receives Tier, having received FromTier. Reason is
	// "backlog" (adaptive downgrade) or "recovered" (hysteresis-gated
	// upgrade back toward the negotiated tier).
	Tier     int    `json:"tier,omitempty"`
	FromTier int    `json:"from,omitempty"`
	Reason   string `json:"reason,omitempty"`

	// minTier is the lowest trace tier that includes this event (0 ⊆ 1 ⊆
	// 2): 0 = dashboard-grade (decimated points, glyphs, end), 1 = the
	// full default stream, 2 = diagnostic detail only T2 subscribers see.
	// Classified once where the event is produced; the fan-out path
	// delivers the event to every subscriber whose tier >= minTier.
	// Unexported: invisible on the wire.
	minTier uint8
	// enq is the event's subscriber-enqueue stamp (obs monotonic nanos),
	// set by the broadcast path so the stream writer can observe the
	// queue-to-wire stage. Unexported: invisible on the wire.
	enq int64
	// wire and batchLen mark a group-commit carrier: an Event whose only
	// meaning is its wire field, holding batchLen consecutive events
	// pre-encoded as one contiguous byte run per encoding (see
	// flushEmitLocked). Carriers exist only on the queues of subscribers
	// with a wire encoding, whose stream writers forward the shared
	// immutable bytes instead of re-marshaling, and weigh batchLen events
	// in drop accounting. nil and zero on every real event; a stream
	// writer marshals those (catch-up replays, drop and tier notices)
	// locally. Unexported: invisible on the wire.
	wire     *eventWire
	batchLen int
}

// weight is the event's cost in drop accounting: carriers count the
// events they carry, everything else counts one.
func (ev *Event) weight() int {
	if ev.batchLen > 0 {
		return ev.batchLen
	}
	return 1
}

// MarshalJSON keeps the frozen T1 wire shape byte-for-byte for the
// pre-tier event types (they marshal through a plain alias of the same
// struct, tags and field order unchanged) while the new control and
// diagnostic events use compact shadows: a "tier" or "stroke" event
// never serializes the x/z plane coordinates a point carries, and a
// tier event's "tier" field survives even at tier 0.
func (ev Event) MarshalJSON() ([]byte, error) {
	switch ev.Type {
	case "tier":
		return json.Marshal(struct {
			Type   string `json:"type"`
			Tier   int    `json:"tier"`
			From   int    `json:"from"`
			Reason string `json:"reason,omitempty"`
		}{ev.Type, ev.Tier, ev.FromTier, ev.Reason})
	case "stroke":
		return json.Marshal(struct {
			Type   string        `json:"type"`
			Tag    string        `json:"tag,omitempty"`
			T      time.Duration `json:"t_ns,omitempty"`
			Points int           `json:"points,omitempty"`
		}{ev.Type, ev.Tag, ev.T, ev.Points})
	}
	type plain Event
	return json.Marshal(plain(ev))
}

// eventWire is one carrier's shared pre-marshaled byte runs. The slices
// are immutable once delivered: many subscriber writers read them
// concurrently with no copy.
type eventWire struct {
	// ndjson is newline-terminated NDJSON lines (byte-identical to what
	// json.Encoder.Encode writes, one per event).
	ndjson []byte
	// binary is CRC-framed binary event frames (see eventwire.go).
	binary []byte
}

// burstEntry is one decoded report inside an ingest burst, paired with
// its per-report ingest-decode stamp so batching preserves per-report
// stage latency accounting.
type burstEntry struct {
	rep rfid.Report
	arr int64
}

// burstPool recycles burst slices between the ingest gateway (producer)
// and the session pump (consumer): the gateway fills a slice with up to
// IngestBurst decoded reports and enqueues it as ONE inbox item; the
// pump drains it and puts the slice back. Pooling keeps the burst path
// allocation-free in steady state.
var burstPool = sync.Pool{New: func() any { b := make([]burstEntry, 0, 64); return &b }}

// ingestItem is one message on a session's ingest inbox; exactly one of
// the fields is meaningful.
type ingestItem struct {
	// rep is one phase report (the single-report case).
	rep rfid.Report
	// arr is the report's ingest-decode stamp (obs monotonic nanos): the
	// pump observes arr→dequeue as the ingest stage.
	arr int64
	// burst is a batch of decoded reports entering as one channel
	// operation (burst-mode ingest); the pump returns the slice to
	// burstPool after handling every entry.
	burst *[]burstEntry
	// sweep, when positive, announces the reader cadence (from a Hello or
	// from session creation) and triggers lazy engine construction.
	sweep time.Duration
	// flush asks the pump to drain the reorder buffer and close the
	// engine's current sweeps, acking on the channel.
	flush chan struct{}
	// flushHead is flush plus a reply carrying the log head at the
	// drain boundary — the only head retrace may trust, since the pump
	// keeps appending the instant it moves on (see Retrace).
	flushHead chan uint64
	// catchup asks the pump to drain, then attach a WAL catch-up
	// subscriber at the resulting log head (see SubscribeFrom).
	catchup *catchupReq
	// results asks the pump for the engine's batch-equivalent trace
	// results (engines built with RecordTrace; equivalence tests).
	results chan []engine.TagResult
}

// catchupReq carries a pump-mediated catch-up attach: the pump drains so
// the log head exactly covers everything already emitted live, attaches
// the subscriber in catch-up mode, and acks with that head.
type catchupReq struct {
	sub  *Subscriber
	head chan uint64
}

// Subscriber is one attached consumer of a session's event stream.
type Subscriber struct {
	sess *Session
	ch   chan Event
	// wire is the encoding the subscriber's queue carries (see
	// SubscribeOptions.Wire).
	wire WireEncoding
	// pendingDrops counts events lost since the last successfully
	// delivered drop notice; guarded by the session's emitMu.
	pendingDrops int
	drops        int64

	// Tier state (guarded by the session's emitMu). tier is the trace
	// tier currently served; maxTier is what the subscriber negotiated at
	// attach — adaptive downgrade steps tier below maxTier under backlog
	// and hysteresis steps it back up, never past maxTier. calmFlushes
	// counts consecutive deliveries with the backlog below the upgrade
	// threshold; downgrades counts adaptive steps down.
	tier        uint8
	maxTier     uint8
	calmFlushes int
	downgrades  int64

	// Catch-up state (all guarded by the session's emitMu). While
	// catchingUp, live events are parked in pending (bounded, drop-oldest)
	// and the WAL replay goroutine owns ch: it delivers the replayed
	// prefix, splices pending, and is the one closer of ch. cancel (only
	// set on catch-up subscribers) tells that goroutine to stop.
	catchingUp bool
	pending    []Event
	cancel     chan struct{}
}

// Events is the subscriber's bounded delivery queue. It is closed when
// the session ends or the subscriber detaches.
func (sub *Subscriber) Events() <-chan Event { return sub.ch }

// Drops reports how many events this subscriber has lost to the
// slow-consumer policy.
func (sub *Subscriber) Drops() int64 {
	sub.sess.emitMu.Lock()
	defer sub.sess.emitMu.Unlock()
	return sub.drops
}

// Tier reports the trace tier the subscriber is currently served at
// (0..2); it can sit below the negotiated tier while the adaptive
// downgrade policy has it stepped down.
func (sub *Subscriber) Tier() int {
	sub.sess.emitMu.Lock()
	defer sub.sess.emitMu.Unlock()
	return int(sub.tier)
}

// Downgrades reports how many adaptive tier step-downs this subscriber
// has taken.
func (sub *Subscriber) Downgrades() int64 {
	sub.sess.emitMu.Lock()
	defer sub.sess.emitMu.Unlock()
	return sub.downgrades
}

// Close detaches the subscriber from its session. Safe to call more than
// once and after the session closed.
func (sub *Subscriber) Close() { sub.sess.detach(sub) }

// stroke accumulates one tag's in-progress stroke for glyph recognition.
type stroke struct {
	pts  []geom.Vec2
	last time.Duration
	// n counts the stroke's points for T0 decimation: every
	// t0DecimateEvery-th point (and always the first) is classified into
	// tier 0, so a dashboard tracing the decimated stream still renders
	// every stroke from its first sample.
	n int
}

// sessionState is a session's lifecycle phase. A *Session lives through
// exactly one of two paths:
//
//	live → draining → closed   built by newSession: pump, engine, flusher
//	recovered → closed         built by newRecoveredSession: the WAL record only
//
// Parking or idle-expiring a durable live session closes it and installs
// a recovered successor under its ID; Resume does the reverse.
type sessionState uint8

const (
	// stateLive admits ingest, readers, and live and catch-up subscribers.
	stateLive sessionState = iota
	// stateDraining is a teardown in flight (claimed by Close, idle
	// expiry or a park): every attach refuses.
	stateDraining
	// stateRecovered serves retrace and catch-up replays from the WAL.
	stateRecovered
	// stateClosed is terminal.
	stateClosed
)

// successor is the allowed-transition table: each state has exactly one
// way out, and closed has none.
var successor = map[sessionState]sessionState{
	stateLive:      stateDraining,
	stateDraining:  stateClosed,
	stateRecovered: stateClosed,
}

// Session binds one client's tag-set to a tracking engine and fans its
// live output to subscribers. All ingest flows through a single pump
// goroutine (satisfying the engine's single-ingest-goroutine contract);
// output events are emitted from engine shard goroutines under emitMu.
type Session struct {
	ID      string
	Created time.Time
	// geometry names the session's antenna geometry (deploy registry
	// name, "" = default), fixed at open and threaded to the engine
	// factory, the WAL meta, and every replay.
	geometry string
	// search is the session's effective vote-search override (nil =
	// deployment default), fixed at open, recorded in the WAL meta, and
	// applied to recovery, retrace and catch-up replays alike so every
	// rebuild runs the search the live engine ran.
	search *vote.SearchConfig
	// walPolicy is the session's durability policy from its spec.
	walPolicy WALPolicy
	// resumeFrom, when nonzero, marks this session as the resumption of
	// a parked record: the log reopens for append and sequence numbers
	// continue from this head.
	resumeFrom uint64

	reg *Registry

	inbox    chan ingestItem
	quit     chan struct{}
	pumpDone chan struct{}

	// lastActive is the idle-GC clock (unix nanos), touched by ingest,
	// reader attach and subscriber attach.
	lastActive atomic.Int64

	// state is the lifecycle phase. transition is its only writer and
	// holds both mu and emitMu to write it, so either lock suffices to
	// read it. mu also guards readers.
	mu      sync.Mutex
	state   sessionState
	readers map[net.Conn]struct{}
	// closeOnce runs the shutdown exactly once; later Close calls wait.
	closeOnce sync.Once

	// emitMu guards subscribers and stroke state, written from engine
	// shard goroutines (OnUpdate) and the pump.
	emitMu  sync.Mutex
	subs    map[*Subscriber]struct{}
	strokes map[string]*stroke
	// Group-commit state (guarded by emitMu except the channels): events
	// bound for subscribers accumulate in emitBuf; emitKick (cap 1)
	// nudges the emitFlusher goroutine, which swaps the buffer against
	// emitSpare, encodes the batch once per needed encoding and delivers
	// it to every subscriber. emitQuit/emitDone sequence the final
	// drain into Close, after the pump's end event and before the
	// subscriber sweep. All nil on recovered sessions (no flusher).
	emitBuf   []Event
	emitSpare []Event
	emitKick  chan struct{}
	emitQuit  chan struct{}
	emitDone  chan struct{}
	// emitPace is the flusher's fan-out-aware accumulation window in
	// nanoseconds (atomic: written under emitMu, read by the flusher
	// before locking). Delivering a batch costs every subscriber a wake
	// (and a stream subscriber a socket write), so at wide fan-out the
	// flusher waits this long after a kick before committing, letting
	// the batch grow and amortizing the per-subscriber cost; at small
	// fan-out the window rounds to zero and every event flushes
	// immediately.
	emitPace atomic.Int64

	// pump-owned state (no locking: single goroutine).
	eng     *engine.Engine
	sweep   time.Duration
	reorder reportHeap
	maxSeen time.Duration
	pushSeq uint64
	// log is the session's write-ahead record of the canonical
	// resequenced report stream (nil without a data dir); engineDirty
	// tracks whether any report reached the engine since the last drain,
	// making drains — and their logged flush records — idempotent.
	log         *wal.Log
	engineDirty bool

	// walSeq is the log's head sequence number: incremented by the pump
	// as it appends, read by retrace and catch-up snapshots.
	walSeq atomic.Uint64
	// walBytes mirrors the log's on-disk size (pump refreshes it with the
	// stats snapshot) for the cost meter's WAL-bandwidth rate.
	walBytes atomic.Int64
	// cost turns the session's counters into demand rates (see cost.go).
	cost costMeter
	// sweepNs mirrors the pump's sweep cadence for non-pump readers
	// (retrace and catch-up need it to rebuild the pipeline).
	sweepNs atomic.Int64

	// statsMu guards the last engine stats snapshot the pump refreshes.
	statsMu   sync.Mutex
	lastStats []engine.TagStats

	// counters (atomic: read by HTTP handlers and metrics).
	reports atomic.Int64
	points  atomic.Int64
	glyphs  atomic.Int64
	drops   atomic.Int64
	// tierDowngrades counts adaptive tier step-downs across the session's
	// subscribers: the fan-out pressure signal the cost meter turns into
	// a demand rate for admission.
	tierDowngrades atomic.Int64
	searchEvals    atomic.Int64
	resyncs        atomic.Int64
	outOfOrder     atomic.Int64
	// reorderLate counts reports that arrived after their reorder-window
	// slot had already been released to the engine: the resequencer can
	// no longer place them before already-delivered later reports, so
	// they reach the engine late (clock skew beyond ReorderWindow).
	reorderLate atomic.Int64
	// hypothesis-set sums over the session's tags, refreshed with the
	// stats snapshot: active hypotheses (gauge) plus cumulative leader
	// switches and retirements.
	hypotheses     atomic.Int64
	leaderSwitches atomic.Int64
	retirements    atomic.Int64

	// logger carries the session-scoped structured logger.
	logger *slog.Logger
	// stripe spreads this session's histogram stamps across the shared
	// pipeline's counter stripes.
	stripe int
	// timeline is the session's bounded diagnostic event ring; it
	// survives park/resume (carried through resumeState).
	timeline *obs.Timeline
	// spans retains sampled stage-by-stage report traces (trace_sample_n
	// control knob; GET /v1/sessions/{id}/trace).
	spans *obs.SpanRing
	// openSpan is the in-flight sampled span: the pump publishes it at
	// reorder release, the emitting shard goroutine completes it.
	openSpan atomic.Pointer[obs.Span]
	// lastArrival/lastRelease hand the most recently released report's
	// stamps to onUpdate, which swaps them to zero so each release is
	// observed once in the emit and end-to-end histograms.
	lastArrival atomic.Int64
	lastRelease atomic.Int64
	// sampleCount is the pump's report counter for 1-in-N span sampling.
	sampleCount uint64
	// walSegs tracks the log's segment count so rotations surface on the
	// timeline (pump-owned).
	walSegs int
}

// pumpTick is the pump's housekeeping period: idle detection (drain +
// sweep close after ~2 silent ticks) and stats refresh cadence.
const pumpTick = 50 * time.Millisecond

// statsEvery refreshes the engine stats snapshot every N pump ticks.
const statsEvery = 10

// resumeState carries what a resumed session inherits from the parked
// record it continues: the retained log head its sequence numbers pick
// up after, and the original creation time.
type resumeState struct {
	from    uint64
	created time.Time
	// timeline, when non-nil, is the parked record's diagnostic ring: the
	// resumed session keeps appending to it so the park/resume history
	// reads as one timeline.
	timeline *obs.Timeline
}

func newSession(reg *Registry, spec SessionSpec, resume resumeState) *Session {
	s := &Session{
		ID:         spec.ID,
		Created:    time.Now(),
		geometry:   spec.Geometry,
		search:     spec.Search,
		walPolicy:  spec.WAL,
		resumeFrom: resume.from,
		reg:        reg,
		inbox:      make(chan ingestItem, reg.cfg.IngestBuffer),
		quit:       make(chan struct{}),
		pumpDone:   make(chan struct{}),
		readers:    map[net.Conn]struct{}{},
		subs:       map[*Subscriber]struct{}{},
		strokes:    map[string]*stroke{},
		logger:     reg.logger.With("session", spec.ID),
		stripe:     reg.nextStripe(),
		timeline:   resume.timeline,
		spans:      &obs.SpanRing{},
		emitKick:   make(chan struct{}, 1),
		emitQuit:   make(chan struct{}),
		emitDone:   make(chan struct{}),
	}
	if s.timeline == nil {
		s.timeline = &obs.Timeline{}
	}
	if resume.from > 0 {
		if !resume.created.IsZero() {
			s.Created = resume.created
		}
		s.walSeq.Store(resume.from)
		s.timeline.Record(obs.EventResume, "from_seq="+strconv.FormatUint(resume.from, 10))
	} else {
		s.timeline.Record(obs.EventCreate, "geometry="+spec.Geometry)
	}
	s.touch()
	go s.pump(spec.Sweep)
	go s.emitFlusher()
	return s
}

// sessionRecord is what a recovered session is built from: the durable
// record's identity and head, plus, when a live session is parked, the
// last observable state of the session that wrote it, so a parked
// session reads on /v1 as it did before the park. Startup recovery
// fills it from the log's meta and stats, a park from the closed session
// (Session.record).
type sessionRecord struct {
	meta   wal.Meta
	head   uint64
	policy WALPolicy
	// From a parked session only; zero at startup recovery.
	reports, points, glyphs, drops   int64
	resyncs, outOfOrder, reorderLate int64
	active                           int64 // idle clock, unix nanos
	stats                            []engine.TagStats
	timeline                         *obs.Timeline
	spans                            *obs.SpanRing
}

// closedCh is every recovered session's quit and pumpDone: ingest
// refuses and pump waiters return at once.
var closedCh = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// newRecoveredSession builds a registry entry serving a retained WAL
// record: no pump, no engine, no ingest; addressable for retrace and
// ?from catch-up replay, and resumable. Startup recovery and every park
// (operator, pressure, idle expiry) build recovered sessions here.
func newRecoveredSession(reg *Registry, rec sessionRecord) *Session {
	s := &Session{
		ID:        rec.meta.ID,
		Created:   rec.meta.Created,
		geometry:  rec.meta.Geometry,
		search:    searchFromMeta(rec.meta.Search),
		walPolicy: rec.policy,
		reg:       reg,
		quit:      closedCh,
		pumpDone:  closedCh,
		state:     stateRecovered,
		readers:   map[net.Conn]struct{}{},
		subs:      map[*Subscriber]struct{}{},
		logger:    reg.logger.With("session", rec.meta.ID),
		stripe:    reg.nextStripe(),
		timeline:  rec.timeline,
		spans:     rec.spans,
		lastStats: rec.stats,
	}
	if s.timeline == nil {
		s.timeline = &obs.Timeline{}
		s.timeline.Record(obs.EventRecover, "last_seq="+strconv.FormatUint(rec.head, 10))
	}
	if s.spans == nil {
		s.spans = &obs.SpanRing{}
	}
	s.walSeq.Store(rec.head)
	s.sweepNs.Store(int64(rec.meta.Sweep))
	s.reports.Store(rec.reports)
	s.points.Store(rec.points)
	s.glyphs.Store(rec.glyphs)
	s.drops.Store(rec.drops)
	s.resyncs.Store(rec.resyncs)
	s.outOfOrder.Store(rec.outOfOrder)
	s.reorderLate.Store(rec.reorderLate)
	s.touch()
	if rec.active != 0 {
		s.lastActive.Store(rec.active)
	}
	return s
}

// record snapshots a closed session into its recovered successor's
// record.
func (s *Session) record() sessionRecord {
	return sessionRecord{
		meta: s.meta(time.Duration(s.sweepNs.Load())), head: s.walSeq.Load(), policy: s.walPolicy,
		reports: s.reports.Load(), points: s.points.Load(), glyphs: s.glyphs.Load(), drops: s.drops.Load(),
		resyncs: s.resyncs.Load(), outOfOrder: s.outOfOrder.Load(), reorderLate: s.reorderLate.Load(),
		active: s.lastActive.Load(), stats: s.TagStats(),
		timeline: s.timeline, spans: s.spans,
	}
}

// meta is the session's WAL meta record at the given sweep cadence.
func (s *Session) meta(sweep time.Duration) wal.Meta {
	return wal.Meta{
		ID: s.ID, Created: s.Created, Sweep: sweep,
		Geometry: s.geometry, Search: searchToMeta(s.search),
	}
}

// Geometry names the session's antenna geometry ("" = default).
func (s *Session) Geometry() string { return s.geometry }

// Search returns a copy of the session's vote-search override (nil =
// deployment default).
func (s *Session) Search() *vote.SearchConfig {
	if s.search == nil {
		return nil
	}
	cp := *s.search
	return &cp
}

// searchToMeta / searchFromMeta map a session's search override onto
// the WAL meta encoding (Mode 0 = none, 1 = hierarchical, 2 = dense):
// the record must carry the search it was traced under, or recovery and
// retrace would rebuild a different pipeline than the live engine ran.
func searchToMeta(sc *vote.SearchConfig) wal.SearchMeta {
	if sc == nil {
		return wal.SearchMeta{}
	}
	m := wal.SearchMeta{TopK: uint8(sc.TopK), Levels: uint8(sc.Levels)}
	if sc.Mode == vote.SearchDense {
		m.Mode = 2
	} else {
		m.Mode = 1
	}
	return m
}

func searchFromMeta(m wal.SearchMeta) *vote.SearchConfig {
	if m.Mode == 0 {
		return nil
	}
	sc := &vote.SearchConfig{TopK: int(m.TopK), Levels: int(m.Levels)}
	if m.Mode == 2 {
		sc.Mode = vote.SearchDense
	}
	return sc
}

// lifecycle reads the session's state.
func (s *Session) lifecycle() sessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// transition is the state field's only writer: it moves the session to
// `to` when the successor table allows the move from the current state
// and cond (if non-nil) holds. It holds mu and emitMu across the check
// and the write, so cond sees readers and subscribers frozen and a
// reader holding either lock sees a stable state.
func (s *Session) transition(to sessionState, cond func() bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	if next, ok := successor[s.state]; !ok || next != to || (cond != nil && !cond()) {
		return false
	}
	s.state = to
	return true
}

// pipelined reports whether the session was built live (newSession)
// rather than from a record. Fixed for the object's life, it decides
// which gauge the session's registry entry counts in.
func (s *Session) pipelined() bool { return s.inbox != nil }

// Recovered reports whether the session serves from its retained WAL
// only (no live pump or engine).
func (s *Session) Recovered() bool { return s.lifecycle() == stateRecovered }

// State names the session's lifecycle phase for the control API: a
// draining session already reads "closed".
func (s *Session) State() string {
	switch s.lifecycle() {
	case stateLive:
		return "live"
	case stateRecovered:
		return "recovered"
	default:
		return "closed"
	}
}

// touch refreshes the idle clock.
func (s *Session) touch() { s.lastActive.Store(time.Now().UnixNano()) }

// idleSince returns the last-activity time.
func (s *Session) idleSince() time.Time { return time.Unix(0, s.lastActive.Load()) }

// Offer feeds one phase report into the session. It blocks for
// backpressure when the inbox is full and fails once the session closes.
// Reports should be non-decreasing in time per reader; cross-reader skew
// up to the reorder window is resequenced.
func (s *Session) Offer(rep rfid.Report) error {
	return s.enqueue(ingestItem{rep: rep, arr: obs.Now()})
}

// OfferBatch feeds a batch of phase reports as a single inbox operation:
// one channel hop for the whole burst instead of one per report. The
// batch is copied into a pooled burst slice, so the caller keeps
// ownership of reps. Ordering, reorder-window resequencing and stage
// stamps are identical to offering each report individually.
func (s *Session) OfferBatch(reps []rfid.Report) error {
	if len(reps) == 0 {
		return nil
	}
	bp := burstPool.Get().(*[]burstEntry)
	buf := (*bp)[:0]
	now := obs.Now()
	for _, rep := range reps {
		buf = append(buf, burstEntry{rep: rep, arr: now})
	}
	*bp = buf
	if err := s.enqueue(ingestItem{burst: bp}); err != nil {
		*bp = (*bp)[:0]
		burstPool.Put(bp)
		return err
	}
	return nil
}

// enqueue pushes one ingest item, preferring the closed signal over the
// buffered inbox so post-close offers fail deterministically.
func (s *Session) enqueue(it ingestItem) error {
	select {
	case <-s.quit:
		return ErrSessionClosed
	default:
	}
	select {
	case s.inbox <- it:
		return nil
	case <-s.quit:
		return ErrSessionClosed
	}
}

// announceSweep tells the session its reader cadence (idempotent; the
// first announcement builds the engine).
func (s *Session) announceSweep(sweep time.Duration) error {
	if sweep <= 0 {
		return ErrNoSweep
	}
	return s.enqueue(ingestItem{sweep: sweep})
}

// Flush drains the reorder buffer and closes the engine's current sweeps,
// emitting any final positions. It blocks until the pump has done so.
// Flush is idempotent and safe to race the pump's own idle drain and
// Close: with nothing ingested since the previous drain it is a no-op
// (each sweep closes exactly once — see drain and the realtime tracker's
// own flush guard).
func (s *Session) Flush() error {
	ack := make(chan struct{})
	if err := s.enqueue(ingestItem{flush: ack}); err != nil {
		return err
	}
	select {
	case <-ack:
		return nil
	case <-s.pumpDone:
		return ErrSessionClosed
	}
}

// SubscribeTier names the trace tier a subscriber negotiates at attach.
// The zero value is the full default stream (T1), so existing callers
// keep today's stream untouched.
type SubscribeTier int

const (
	// TierDefault is the unnegotiated default: the full T1 stream.
	TierDefault SubscribeTier = iota
	// Tier0 is the dashboard-grade stream: decimated positions plus
	// glyphs and the end marker.
	Tier0
	// Tier1 is the full default stream, explicitly requested.
	Tier1
	// Tier2 is T1 plus the diagnostic detail events (stroke closures).
	Tier2
)

// level maps the negotiated tier onto the internal 0..2 tier space.
func (t SubscribeTier) level() uint8 {
	switch t {
	case Tier0:
		return 0
	case Tier2:
		return 2
	default:
		return 1
	}
}

// Adaptive downgrade policy: a subscriber whose queue fill crosses
// downgradeBacklog at a delivery steps down one tier (shedding stream
// weight instead of dropping events); a fill at or below upgradeBacklog
// for upgradeAfterCalm consecutive deliveries steps back up toward the
// negotiated tier. The wide hysteresis band keeps a consumer hovering
// near its capacity from flapping.
const (
	downgradeBacklog = 0.75
	upgradeBacklog   = 0.25
	upgradeAfterCalm = 64
)

// WireEncoding names what a subscriber's queue carries.
type WireEncoding uint8

const (
	// WireNone delivers decoded events one queue item each: in-process
	// consumers reading Events().
	WireNone WireEncoding = iota
	// WireNDJSON delivers group-commit carriers of pre-encoded NDJSON
	// lines.
	WireNDJSON
	// WireBinary delivers group-commit carriers of CRC-framed binary
	// event frames.
	WireBinary
)

// SubscribeOptions configures a subscriber attach.
type SubscribeOptions struct {
	// Buffer bounds the delivery queue; <= 0 takes the registry default.
	Buffer int
	// Wire selects the queue's encoding. With an encoding, the session's
	// emit flusher encodes each batch of events exactly once per
	// (tier, encoding) and delivers one opaque carrier per batch (shared
	// immutable bytes, one channel operation per subscriber per batch):
	// for stream writers that forward pre-encoded bytes (the HTTP stream
	// handler). Carriers have no decoded fields, so in-process consumers
	// reading Events() leave this WireNone and get the same batches'
	// events one by one.
	Wire WireEncoding
	// Tier selects the trace tier (T0 decimated / T1 full / T2
	// diagnostic); the zero value is T1, today's stream exactly. Slow
	// subscribers are adaptively stepped below the negotiated tier and
	// back (see the downgrade policy constants), each transition
	// announced in-stream as a "tier" event.
	Tier SubscribeTier
}

// Subscribe attaches a bounded-queue consumer to the session's live
// stream. buffer <= 0 takes the registry default. Subscribers beyond the
// per-session cap are refused (load shedding, HTTP 503 upstream), as are
// attaches to a session idle expiry has already claimed.
func (s *Session) Subscribe(buffer int) (*Subscriber, error) {
	return s.SubscribeOpts(SubscribeOptions{Buffer: buffer})
}

// SubscribeOpts is Subscribe with the full option set (queue bound,
// wire encoding, tier).
func (s *Session) SubscribeOpts(o SubscribeOptions) (*Subscriber, error) {
	sub := s.newSubscriber(o)
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	if err := s.admitLocked(false); err != nil {
		return nil, err
	}
	s.addSubLocked(sub)
	s.touch()
	return sub, nil
}

// newSubscriber builds an unattached subscriber from its options.
func (s *Session) newSubscriber(o SubscribeOptions) *Subscriber {
	buffer := o.Buffer
	if buffer <= 0 {
		buffer = s.reg.cfg.SubscriberQueue
	}
	tier := o.Tier.level()
	return &Subscriber{
		sess: s, ch: make(chan Event, buffer), wire: o.Wire,
		tier: tier, maxTier: tier,
	}
}

// admitLocked is the one subscriber admission check, shared by live and
// catch-up attaches: a live session admits both, a recovered one only
// catch-up replays, and every other state refuses. An attach past the
// per-session cap is shed and recorded on the session timeline.
// Requires emitMu.
func (s *Session) admitLocked(catchup bool) error {
	if s.state != stateLive && (s.state != stateRecovered || !catchup) {
		return ErrSessionClosed
	}
	if len(s.subs) >= s.reg.cfg.MaxSubscribers {
		s.timeline.Record(obs.EventShed, "subscriber limit "+strconv.Itoa(s.reg.cfg.MaxSubscribers))
		return ErrSubscriberLimit
	}
	return nil
}

// addSubLocked / removeSubLocked keep the subscriber table, the flush
// pace and the gauges in one place. Requires emitMu.
func (s *Session) addSubLocked(sub *Subscriber) {
	// Anything already buffered for group commit predates this attach —
	// and, for a pump-mediated catch-up attach, is covered by the WAL
	// head the subscriber will replay from. Flush it to the existing
	// subscribers first, so the newcomer's stream starts strictly at its
	// attach point (no pre-attach events, no replay duplicates).
	s.flushEmitLocked()
	s.subs[sub] = struct{}{}
	s.updateEmitPaceLocked()
	s.reg.metrics.SubscribersActive.Add(1)
	s.reg.metrics.TierSubscribers[sub.tier].Add(1)
}

func (s *Session) removeSubLocked(sub *Subscriber) {
	delete(s.subs, sub)
	s.updateEmitPaceLocked()
	s.reg.metrics.SubscribersActive.Add(-1)
	s.reg.metrics.TierSubscribers[sub.tier].Add(-1)
}

// updateEmitPaceLocked re-derives the flusher's accumulation window
// from the subscriber count. Requires emitMu.
func (s *Session) updateEmitPaceLocked() {
	pace := time.Duration(len(s.subs)) * emitPacePerSub
	if pace > emitPaceMax {
		pace = emitPaceMax
	}
	s.emitPace.Store(int64(pace))
}

// maybeRetuneTierLocked applies the adaptive tier policy to one
// subscriber at a delivery: a backlog past the downgrade threshold steps
// it down a tier immediately (the next batch is already encoded for the
// cheaper tier), a sustained calm backlog steps it back up toward the
// tier it negotiated. Requires emitMu.
func (s *Session) maybeRetuneTierLocked(sub *Subscriber) {
	fill := float64(len(sub.ch)) / float64(cap(sub.ch))
	switch {
	case fill >= downgradeBacklog && sub.tier > 0:
		s.setTierLocked(sub, sub.tier-1, "backlog")
	case fill <= upgradeBacklog && sub.tier < sub.maxTier:
		if sub.calmFlushes++; sub.calmFlushes >= upgradeAfterCalm {
			s.setTierLocked(sub, sub.tier+1, "recovered")
		}
	default:
		sub.calmFlushes = 0
	}
}

// setTierLocked moves a subscriber to a new tier: the transition is
// announced in-stream as a "tier" control event (no shared wire — the
// stream writer marshals it locally), recorded on the session timeline,
// exported as metrics, and counted into the session's fan-out pressure
// signal for the cost meter. Requires emitMu.
func (s *Session) setTierLocked(sub *Subscriber, tier uint8, reason string) {
	from := sub.tier
	if tier == from {
		return
	}
	sub.tier = tier
	sub.calmFlushes = 0
	s.reg.metrics.TierSubscribers[from].Add(-1)
	s.reg.metrics.TierSubscribers[tier].Add(1)
	if tier < from {
		sub.downgrades++
		s.tierDowngrades.Add(1)
		s.reg.metrics.TierDowngrades.Add(1)
	} else {
		s.reg.metrics.TierUpgrades.Add(1)
	}
	s.timeline.Record(obs.EventTierChange,
		"tier "+strconv.Itoa(int(from))+"->"+strconv.Itoa(int(tier))+" ("+reason+")")
	s.sendLocked(sub, Event{Type: "tier", Tier: int(tier), FromTier: int(from), Reason: reason})
}

// TierDowngrades reports the session's cumulative adaptive tier
// step-downs across all its subscribers.
func (s *Session) TierDowngrades() int64 { return s.tierDowngrades.Load() }

// detach removes a subscriber, closing its queue exactly once. Safe on
// an already-detached subscriber.
func (s *Session) detach(sub *Subscriber) {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	if _, ok := s.subs[sub]; ok {
		s.detachLocked(sub)
	}
}

// detachLocked removes an attached subscriber. A subscriber still
// catching up is cancelled instead of closed: its replay goroutine owns
// the queue and ends it on the way out. Requires emitMu.
func (s *Session) detachLocked(sub *Subscriber) {
	s.removeSubLocked(sub)
	if sub.catchingUp {
		close(sub.cancel)
		return
	}
	close(sub.ch)
}

// Subscribers reports the attached consumer count.
func (s *Session) Subscribers() int {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	return len(s.subs)
}

// addReader registers an ingest connection so session close also closes
// the wire. Attaches to a session idle expiry has claimed are refused —
// the connection must not be bound to an engine mid-teardown.
func (s *Session) addReader(conn net.Conn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateLive {
		return ErrSessionClosed
	}
	s.readers[conn] = struct{}{}
	s.touch()
	return nil
}

func (s *Session) removeReader(conn net.Conn) {
	s.mu.Lock()
	delete(s.readers, conn)
	s.mu.Unlock()
}

// Readers reports the connected reader count.
func (s *Session) Readers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.readers)
}

// expirable reports whether idle expiry may claim the session: no
// activity for longer than idle, and no readers or subscribers. Passed
// as the condition of the live → draining claim (see transition), it is
// checked under both locks, so an attach racing the expiry either keeps
// the session alive (the claim fails) or is refused (the claim won).
// A park claims with no condition: parking disconnects consumers.
func (s *Session) expirable(now time.Time, idle time.Duration) func() bool {
	return func() bool {
		return now.Sub(s.idleSince()) > idle && len(s.readers) == 0 && len(s.subs) == 0
	}
}

// Close is the one teardown, for a session in any state and idempotent:
// every caller returns after the shutdown has completed. A live (or
// claimed, draining) session stops its pump, which drains pending
// ingest, flushes and closes the engine and emits a final "end";
// readers are disconnected, and every subscriber queue is ended. A
// recovered session only ends its catch-up replays.
func (s *Session) Close() {
	s.closeOnce.Do(func() {
		if s.Recovered() {
			s.transition(stateClosed, nil)
			s.endSubscribers()
			return
		}
		s.transition(stateDraining, nil) // fails harmlessly when already claimed
		s.mu.Lock()
		conns := make([]net.Conn, 0, len(s.readers))
		for c := range s.readers {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		close(s.quit)
		for _, c := range conns {
			c.Close()
		}
		<-s.pumpDone
		// The pump's final "end" event is in the group-commit buffer;
		// retire the flusher (it drains on the way out) before sweeping
		// the subscriber table, so subscribers get everything —
		// end included — ahead of their queues closing.
		close(s.emitQuit)
		<-s.emitDone
		s.transition(stateClosed, nil)
		s.endSubscribers()
		// Roll the final counts into the monotonic retired counters
		// (the pump's quit path refreshed them just before closing the
		// engine); Swap prevents double-counting with a concurrent
		// /metrics sum.
		s.reg.metrics.SearchEvalsRetired.Add(s.searchEvals.Swap(0))
		s.reg.metrics.LeaderSwitchesRetired.Add(s.leaderSwitches.Swap(0))
		s.reg.metrics.RetirementsRetired.Add(s.retirements.Swap(0))
		s.hypotheses.Store(0)
		s.reg.metrics.SessionsClosed.Add(1)
	})
	<-s.pumpDone
}

// endSubscribers detaches every subscriber at teardown. Live queues
// already hold the pump's final "end"; a catch-up replay cancelled here
// ends its own queue with one (see runCatchup).
func (s *Session) endSubscribers() {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	for sub := range s.subs {
		s.detachLocked(sub)
	}
}

// pump is the session's single ingest goroutine: it owns the engine, the
// reorder buffer and the idle-drain logic.
func (s *Session) pump(sweep time.Duration) {
	defer close(s.pumpDone)
	if sweep > 0 {
		s.handleSweep(sweep)
	}
	ticker := time.NewTicker(pumpTick)
	defer ticker.Stop()
	idleTicks, ticks := 0, 0
	for {
		select {
		case it := <-s.inbox:
			idleTicks = 0
			s.handle(it)
		case <-ticker.C:
			idleTicks++
			ticks++
			if idleTicks == 2 {
				// ~100 ms of ingest silence: the stream paused or ended.
				// Drain the reorder buffer, close open sweeps so the last
				// positions reach subscribers, and finalize idle strokes.
				s.drain()
				s.finalizeStrokes()
			}
			if ticks%statsEvery == 0 {
				s.refreshStats()
			}
		case <-s.quit:
			for {
				select {
				case it := <-s.inbox:
					s.handle(it)
					continue
				default:
				}
				break
			}
			s.drain()
			// Final stats snapshot BEFORE closing the engine: Stats on a
			// closed engine returns nil, which would zero the counters
			// just before Close rolls them into the retired totals.
			s.refreshStats()
			if s.eng != nil {
				s.eng.Close()
			}
			if s.log != nil {
				// Clean close marker + compaction: the session's record
				// is retained on disk for recovery and retrace.
				if err := s.log.Close(s.walSeq.Add(1)); err != nil {
					s.logger.Error("wal close failed", "err", err)
				}
				s.log = nil
			}
			s.finalizeStrokes()
			s.broadcast(Event{Type: "end"})
			return
		}
	}
}

func (s *Session) handle(it ingestItem) {
	switch {
	case it.burst != nil:
		// A whole ingest burst in one inbox item: feed the reorder buffer
		// and engine without further channel hops, then recycle the slice.
		for _, e := range *it.burst {
			s.handleReport(e.rep, e.arr)
		}
		s.reg.pipeline.ObserveBurst(len(*it.burst))
		*it.burst = (*it.burst)[:0]
		burstPool.Put(it.burst)
	case it.sweep > 0:
		s.handleSweep(it.sweep)
	case it.flush != nil:
		s.drain()
		s.finalizeStrokes()
		s.refreshStats()
		close(it.flush)
	case it.flushHead != nil:
		s.drain()
		s.finalizeStrokes()
		s.refreshStats()
		it.flushHead <- s.walSeq.Load()
	case it.catchup != nil:
		// Drain first so the log head the subscriber snapshots exactly
		// covers everything already emitted to live subscribers: every
		// event after the attach derives from records past the head.
		s.drain()
		s.emitMu.Lock()
		if s.state != stateLive {
			s.emitMu.Unlock()
			close(it.catchup.head) // session closing; caller sees 0/closed
			return
		}
		s.addSubLocked(it.catchup.sub)
		s.emitMu.Unlock()
		s.touch()
		it.catchup.head <- s.walSeq.Load()
	case it.results != nil:
		s.drain()
		if s.eng == nil {
			it.results <- nil
			return
		}
		it.results <- s.eng.TraceResults()
	default:
		s.handleReport(it.rep, it.arr)
	}
}

// handleSweep builds the engine on the first cadence announcement;
// later announcements (reader reconnects) keep the original cadence. A
// failed build is not retried: it is recorded once on the timeline, and
// handleReport counts every report it then drops.
// With a WAL store configured, the session's log opens here — the sweep
// cadence is part of its meta, and reports cannot reach the engine (or
// the log) before it is known.
func (s *Session) handleSweep(sweep time.Duration) {
	if s.sweep > 0 {
		return
	}
	s.sweep = sweep
	eng, err := s.reg.cfg.NewEngine(sweep, s.geometry, s.search, s.onUpdate)
	if err != nil {
		s.logger.Error("engine build failed", "err", err)
		s.timeline.Record(obs.EventEngineFailed, err.Error())
		return
	}
	s.eng = eng
	s.sweepNs.Store(int64(sweep))
	if st := s.reg.cfg.WAL; st != nil && !s.walPolicy.Disable {
		meta := s.meta(sweep)
		over := wal.Overrides{SyncEvery: s.walPolicy.SyncEvery}
		var log *wal.Log
		if s.resumeFrom > 0 {
			// Resuming a parked record: reopen for append — never
			// truncate — so the retained prefix and everything the resumed
			// session logs replay as one stream.
			log, err = st.AppendTo(meta, over)
		} else {
			log, err = st.CreateWith(meta, over)
		}
		if err != nil {
			s.logger.Error("wal open failed", "err", err)
			return
		}
		s.log = log
		s.walBytes.Store(log.Bytes())
		s.walSegs = log.Segments()
	}
}

// handleReport resequences one report through the reorder heap and offers
// everything older than the hold window to the engine in time order.
// arr is the report's ingest-decode stamp (zero when the report entered
// through a path that does not stamp, e.g. tests driving enqueue).
func (s *Session) handleReport(rep rfid.Report, arr int64) {
	s.touch()
	s.reports.Add(1)
	s.reg.metrics.Reports.Add(1)
	now := obs.Now()
	if arr > 0 {
		s.reg.pipeline.ObserveStage(obs.StageIngest, now-arr, s.stripe)
	}
	if s.eng == nil {
		// No cadence announced yet (defensive: the gateway always sends
		// the Hello first), or the engine could not be built. Drop rather
		// than grow without bound, and count it.
		s.reg.metrics.ReportsDropped.Add(1)
		return
	}
	hold := s.reg.cfg.ReorderWindow
	if s.maxSeen >= hold && rep.Time <= s.maxSeen-hold {
		// The resequencer already released this report's time slot: later
		// reports have been delivered, so it will reach the engine out of
		// order (a reader's clock runs behind by more than the window).
		// It is still delivered — and logged — so live and replay stay
		// identical; the counter is the visibility the window breach
		// otherwise lacks.
		s.reorderLate.Add(1)
		s.reg.metrics.ReorderLate.Add(1)
	}
	s.pushSeq++
	heap.Push(&s.reorder, orderedReport{rep: rep, seq: s.pushSeq, arr: arr, pushed: now})
	if rep.Time > s.maxSeen {
		s.maxSeen = rep.Time
	}
	for s.reorder.Len() > 0 && s.reorder.min().Time <= s.maxSeen-hold {
		s.offerToEngine(heap.Pop(&s.reorder).(orderedReport))
	}
}

// drain releases the whole reorder buffer and closes current sweeps. It
// is idempotent: with nothing buffered and nothing offered since the
// previous drain it does nothing — in particular it does not log a
// flush record, so racing drain paths (the pump's idle tick, an explicit
// client Flush, session close) close each sweep exactly once, live and
// in the WAL replay alike.
func (s *Session) drain() {
	for s.reorder.Len() > 0 {
		s.offerToEngine(heap.Pop(&s.reorder).(orderedReport))
	}
	if s.eng == nil || !s.engineDirty {
		return
	}
	s.engineDirty = false
	if err := s.eng.Flush(); err != nil {
		s.logger.Warn("engine flush failed", "err", err)
	}
	if s.log != nil {
		if err := s.log.AppendFlush(s.walSeq.Add(1)); err != nil {
			s.walFailed(err)
		}
	}
}

// offerToEngine hands one resequenced report to the engine, recording it
// in the WAL first: the log is written after the reorder buffer, so it
// is the canonical stream — exactly what the engine consumes, in the
// order it consumes it. Each hand-off stamps the reorder, WAL-append and
// engine-offer stages, and 1-in-N reports open a sampled span that the
// emitting shard goroutine completes.
func (s *Session) offerToEngine(or orderedReport) {
	release := obs.Now()
	s.reg.pipeline.ObserveStage(obs.StageReorder, release-or.pushed, s.stripe)
	if s.log != nil {
		if err := s.log.AppendReport(s.walSeq.Add(1), or.rep); err != nil {
			s.walFailed(err)
		}
	}
	walDone := obs.Now()
	s.reg.pipeline.ObserveStage(obs.StageWALAppend, walDone-release, s.stripe)
	s.engineDirty = true
	if err := s.eng.Offer(or.rep); err != nil {
		s.logger.Warn("engine offer failed", "err", err)
	}
	offerDone := obs.Now()
	s.reg.pipeline.ObserveStage(obs.StageEngineOffer, offerDone-walDone, s.stripe)
	// Hand the release to the emit path; the shard goroutine that next
	// produces positions swaps these back to zero so the emit and
	// end-to-end histograms see each release window once.
	if or.arr > 0 {
		s.lastArrival.Store(or.arr)
	}
	s.lastRelease.Store(offerDone)
	s.sampleCount++
	if n := s.reg.traceSampleN.Load(); n > 0 && s.sampleCount%uint64(n) == 0 {
		sp := &obs.Span{
			Seq:       s.walSeq.Load(),
			T:         int64(or.rep.Time),
			Wall:      time.Now().UnixNano(),
			IngestNs:  or.pushed - or.arr,
			ReorderNs: release - or.pushed,
			WALNs:     walDone - release,
			OfferNs:   offerDone - walDone,
			Arrival:   or.arr,
			Release:   offerDone,
		}
		if or.arr == 0 {
			sp.IngestNs = 0
			sp.Arrival = or.pushed
		}
		if old := s.openSpan.Swap(sp); old != nil {
			// The previous sampled report never produced an emission
			// (aggregated away); record it without emit/total timing.
			s.spans.Add(*old)
		}
	}
}

// walFailed abandons a session's log after a write error: tracing
// continues, durability for this session stops (and is surfaced), rather
// than spamming a failing disk on every report.
func (s *Session) walFailed(err error) {
	s.logger.Error("wal append failed; disabling durability for this session", "err", err)
	s.log.Abandon()
	s.log = nil
	s.reg.metrics.WALFailures.Add(1)
}

// refreshStats snapshots per-tag engine stats (pump-only, per the
// engine's Stats contract) for the HTTP info endpoint and the
// search-evals metric.
func (s *Session) refreshStats() {
	if s.log != nil {
		s.walBytes.Store(s.log.Bytes())
		if segs := s.log.Segments(); segs > s.walSegs {
			s.timeline.Record(obs.EventWALRotate, "segments="+strconv.Itoa(segs))
			s.walSegs = segs
		}
	}
	if s.eng == nil {
		return
	}
	stats := s.eng.Stats()
	var evals, hyps, switches, retire int64
	for _, st := range stats {
		evals += int64(st.SearchEvals)
		hyps += int64(st.Hypotheses)
		switches += int64(st.LeaderSwitches)
		retire += int64(st.Retirements)
	}
	s.searchEvals.Store(evals)
	s.hypotheses.Store(hyps)
	s.leaderSwitches.Store(switches)
	s.retirements.Store(retire)
	s.statsMu.Lock()
	s.lastStats = stats
	s.statsMu.Unlock()
}

// Spans returns the session's retained sampled spans, oldest first.
func (s *Session) Spans() []obs.Span { return s.spans.Snapshot() }

// SpanTotal counts every span the session ever sampled.
func (s *Session) SpanTotal() uint64 { return s.spans.Total() }

// Events returns the session's diagnostic timeline, oldest first.
func (s *Session) Events() []obs.TimelineEvent { return s.timeline.Snapshot() }

// EventTotal counts every timeline event ever recorded.
func (s *Session) EventTotal() uint64 { return s.timeline.Total() }

// LastEvent returns the most recent timeline event, if any.
func (s *Session) LastEvent() (obs.TimelineEvent, bool) { return s.timeline.Last() }

// TagStats returns the last per-tag stats snapshot.
func (s *Session) TagStats() []engine.TagStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return append([]engine.TagStats(nil), s.lastStats...)
}

// onUpdate receives live positions from engine shard goroutines: it
// advances per-tag stroke state and broadcasts point events.
func (s *Session) onUpdate(u engine.Update) {
	now := obs.Now()
	if rel := s.lastRelease.Swap(0); rel > 0 {
		s.reg.pipeline.ObserveStage(obs.StageEmit, now-rel, s.stripe)
	}
	if arr := s.lastArrival.Swap(0); arr > 0 {
		s.reg.pipeline.ObserveE2E(now-arr, s.stripe)
	}
	if sp := s.openSpan.Swap(nil); sp != nil {
		sp.EmitNs = now - sp.Release
		sp.TotalNs = now - sp.Arrival
		s.spans.Add(*sp)
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	st := s.strokes[u.Tag]
	if st == nil {
		st = &stroke{}
		s.strokes[u.Tag] = st
	}
	for _, p := range u.Positions {
		// A leadership switch re-bases the trajectory on a different
		// hypothesis; the jump is not pen movement, so close the stroke.
		if len(st.pts) > 0 && (p.Time-st.last > s.reg.cfg.GlyphGap || p.Switched) {
			s.finalizeStrokeLocked(u.Tag, st)
		}
		if p.Switched {
			s.timeline.Record(obs.EventLeaderSwitch, "tag="+u.Tag)
		}
		st.pts = append(st.pts, p.Pos)
		st.last = p.Time
		st.n++
		s.points.Add(1)
		s.reg.metrics.Points.Add(1)
		// Classify the point's tier once, here: most points are T1-only,
		// but every t0DecimateEvery-th point of a stroke (starting with
		// its first) also reaches the decimated T0 stream, so a dashboard
		// still draws every stroke's shape at ~1/8 the point weight.
		minTier := uint8(1)
		if st.n%t0DecimateEvery == 1 {
			minTier = 0
		}
		s.broadcastLocked(Event{
			Type: "point", Tag: u.Tag, T: p.Time, X: p.Pos.X, Z: p.Pos.Z,
			Confidence: p.Confidence, Hypotheses: p.Hypotheses, Switched: p.Switched,
			minTier: minTier,
		})
	}
}

// finalizeStrokes closes every in-progress stroke (idle pause or session
// end) and emits their glyphs.
func (s *Session) finalizeStrokes() {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	for tag, st := range s.strokes {
		s.finalizeStrokeLocked(tag, st)
	}
}

// finalizeStrokeLocked classifies one completed stroke against the glyph
// font and emits a glyph event, plus a T2 diagnostic "stroke" event on
// every closure (deterministic: it fires whether or not the stroke was
// long enough to classify). Requires emitMu.
func (s *Session) finalizeStrokeLocked(tag string, st *stroke) {
	pts := st.pts
	last := st.last
	st.pts, st.last, st.n = nil, 0, 0
	if len(pts) > 0 {
		s.broadcastLocked(Event{
			Type: "stroke", Tag: tag, T: last, Points: len(pts),
			minTier: 2,
		})
	}
	if len(pts) < s.reg.cfg.GlyphMinPoints || s.reg.rec == nil {
		return
	}
	cls, err := s.reg.rec.Classify(pts)
	if err != nil {
		return
	}
	s.glyphs.Add(1)
	s.reg.metrics.Glyphs.Add(1)
	s.broadcastLocked(Event{
		Type: "glyph", Tag: tag, T: last,
		Glyph: string(cls.Rune), Dist: cls.Distance, Margin: cls.Margin,
		Points: len(pts),
	})
}

// broadcast emits one event to every subscriber.
func (s *Session) broadcast(ev Event) {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	s.broadcastLocked(ev)
}

// broadcastLocked queues an event for every subscriber: it joins the
// group-commit buffer, and the emit flusher delivers it with the rest of
// its batch (see flushEmitLocked). That turns O(events × subscribers)
// channel operations into O(batches × subscribers). The emitting
// goroutine only flushes inline when the backlog tops emitBatchMax.
// Requires emitMu.
func (s *Session) broadcastLocked(ev Event) {
	if len(s.subs) == 0 {
		return
	}
	ev.enq = obs.Now()
	s.emitBuf = append(s.emitBuf, ev)
	if len(s.emitBuf) >= emitBatchMax {
		s.flushEmitLocked()
		return
	}
	select {
	case s.emitKick <- struct{}{}:
	default:
	}
}

// emitBatchMax bounds the group-commit backlog: past this many buffered
// events the emitting goroutine flushes inline rather than let the
// buffer grow while the flusher is behind.
const emitBatchMax = 1024

// Fan-out pacing: each flush bills every subscriber roughly a
// goroutine wake (plus a socket write on the wire), so the flusher's accumulation
// window scales with the subscriber count (emitPacePerSub each), capped
// at emitPaceMax so a wide fan-out still sees fresh data, and windows
// under emitPaceMin are skipped entirely — small fan-outs keep today's
// flush-every-event latency.
const (
	emitPacePerSub = 30 * time.Microsecond
	emitPaceMin    = 250 * time.Microsecond
	emitPaceMax    = 30 * time.Millisecond
)

// t0DecimateEvery is T0's point decimation factor: one point in this
// many per stroke (always including the first) reaches the decimated
// tier. Catch-up replays decimate in WAL-sequence space with the same
// factor.
const t0DecimateEvery = 8

// emitFlusher is the session's group-commit goroutine: kicked by
// broadcastLocked whenever events are buffered for subscribers,
// it flushes the buffer as one batch. While it encodes and delivers a
// batch, later events pile into the next one — batch size adapts to
// load, and an idle stream still flushes every event immediately.
func (s *Session) emitFlusher() {
	defer close(s.emitDone)
	for {
		select {
		case <-s.emitKick:
		case <-s.emitQuit:
			s.emitMu.Lock()
			s.flushEmitLocked()
			s.emitMu.Unlock()
			return
		}
		// Fan-out pacing: let the batch accumulate for a window sized to
		// what delivering it will cost, unless the session is closing —
		// then commit immediately.
		if pace := s.emitPace.Load(); pace >= int64(emitPaceMin) {
			t := time.NewTimer(time.Duration(pace))
			select {
			case <-t.C:
			case <-s.emitQuit:
				t.Stop()
				s.emitMu.Lock()
				s.flushEmitLocked()
				s.emitMu.Unlock()
				return
			}
		}
		s.emitMu.Lock()
		s.flushEmitLocked()
		s.emitMu.Unlock()
	}
}

// flushEmitLocked group-commits the buffered events per tier, the one
// delivery path for every subscriber. Each drained batch is marshaled at
// most once per (tier, encoding) some subscriber is actually served at
// (see encodeCarriers) and every subscriber with a wire encoding gets
// one carrier pointing at its tier's shared immutable run; in-process
// subscribers get the batch's events for their tier one by one, decoded
// and unencoded. Both take the same drop-oldest queue (sendLocked) or
// catch-up parking (parkLocked). Requires emitMu; the tier retune, scan,
// encode and delivery share the one critical section, so a delivered
// carrier always matches the tier and encoding of every subscriber it
// reaches.
func (s *Session) flushEmitLocked() {
	batch := s.emitBuf
	if len(batch) == 0 {
		return
	}
	s.emitBuf = s.emitSpare[:0]
	s.emitSpare = batch
	// Retune tiers first, so this batch is encoded for the tier each
	// subscriber will actually be served at, then collect per-tier
	// encoding demand.
	var needJSON, needBinary [3]bool
	for sub := range s.subs {
		if !sub.catchingUp {
			s.maybeRetuneTierLocked(sub)
		}
		switch sub.wire {
		case WireNDJSON:
			needJSON[sub.tier] = true
		case WireBinary:
			needBinary[sub.tier] = true
		}
	}
	carriers := encodeCarriers(batch, needJSON, needBinary)
	for sub := range s.subs {
		if sub.wire != WireNone {
			if carriers[sub.tier].batchLen > 0 {
				s.deliverLocked(sub, carriers[sub.tier])
			}
			continue
		}
		for i := range batch {
			if sub.tier >= batch[i].minTier {
				s.deliverLocked(sub, batch[i])
			}
		}
	}
}

// encodeCarriers encodes a batch once per (tier, encoding) in demand,
// each event's bytes encoded once per encoding and shared across every
// tier run that includes it (tiers differ only in which events they
// include, never in an event's bytes, so T1's byte run stays
// byte-identical to the pre-tier stream). It returns one carrier per
// populated tier; a tier no event in the batch reaches (e.g. T0 over a
// run of undecimated points) or nobody needs has none (batchLen 0). A
// carrier's enqueue stamp is the batch's OLDEST event, so the
// write-stage histogram sees the worst queue-to-wire latency in the
// batch, not the friendliest.
func encodeCarriers(batch []Event, needJSON, needBinary [3]bool) [3]Event {
	var carriers [3]Event
	for t := range carriers {
		if needJSON[t] || needBinary[t] {
			carriers[t] = Event{enq: batch[0].enq, wire: &eventWire{}}
		}
	}
	for i := range batch {
		ev := &batch[i]
		var js, bin []byte
		for t := int(ev.minTier); t < len(carriers); t++ {
			c := &carriers[t]
			if c.wire == nil {
				continue
			}
			c.batchLen++
			if needJSON[t] {
				if js == nil {
					if b, err := json.Marshal(ev); err == nil {
						js = append(b, '\n')
					} else {
						js = []byte{} // unmarshalable (impossible): skip, don't retry
					}
				}
				c.wire.ndjson = append(c.wire.ndjson, js...)
			}
			if needBinary[t] {
				if bin == nil {
					bin = appendEventFrame(nil, ev)
				}
				c.wire.binary = append(c.wire.binary, bin...)
			}
		}
	}
	return carriers
}

// deliverLocked hands one live event or carrier to a subscriber: parked
// while it is still catching up, queued otherwise. Requires emitMu.
func (s *Session) deliverLocked(sub *Subscriber, ev Event) {
	if sub.catchingUp {
		s.parkLocked(sub, ev)
		return
	}
	s.sendLocked(sub, ev)
}

// parkLocked holds a live event (or carrier) for a subscriber still
// catching up: its queue belongs to the WAL replay goroutine until the
// splice, so live output parks in pending (bounded, drop-oldest) for
// delivery right after the replayed prefix. Requires emitMu.
func (s *Session) parkLocked(sub *Subscriber, ev Event) {
	if len(sub.pending) >= cap(sub.ch) {
		n := sub.pending[0].weight()
		sub.pending = sub.pending[1:]
		sub.pendingDrops += n
		sub.drops += int64(n)
		s.drops.Add(int64(n))
		s.reg.metrics.EventsDropped.Add(int64(n))
	}
	sub.pending = append(sub.pending, ev)
}

// sendLocked delivers one event to one subscriber queue with the
// slow-consumer policy: when the queue is full, the oldest item is
// dropped to make room — freshness beats completeness for a live cursor
// — and the loss is surfaced to the consumer as a "drop" event once
// space allows. Requires emitMu.
func (s *Session) sendLocked(sub *Subscriber, ev Event) {
	if sub.pendingDrops > 0 {
		notice := Event{Type: "drop", Dropped: sub.pendingDrops}
		select {
		case sub.ch <- notice:
			sub.pendingDrops = 0
		default:
		}
	}
	select {
	case sub.ch <- ev:
		return
	default:
	}
	// Queue full: evict the oldest item, then retry once. Items weigh
	// their event count — evicting a batch carrier loses every event in
	// it, and the drop notice says so.
	select {
	case old := <-sub.ch:
		n := int64(old.weight())
		sub.pendingDrops += int(n)
		sub.drops += n
		s.drops.Add(n)
		s.reg.metrics.EventsDropped.Add(n)
	default:
	}
	select {
	case sub.ch <- ev:
	default:
		n := int64(ev.weight())
		sub.pendingDrops += int(n)
		sub.drops += n
		s.drops.Add(n)
		s.reg.metrics.EventsDropped.Add(n)
	}
}

// orderedReport is one reorder-buffer entry: the report plus its arrival
// sequence within the session (the final tie-breaker) and its obs stamps
// (ingest decode, heap push) for stage timing.
type orderedReport struct {
	rep    rfid.Report
	seq    uint64
	arr    int64
	pushed int64
}

// reportHeap is a min-heap of reports by (time, reader ID, arrival
// order): the session's small cross-reader resequencing buffer. The tie
// levels matter — container/heap is not stable, so ordering by time
// alone pops identically-stamped reports in heap-shape-dependent order,
// and two readers stamping the same timestamp could make a live trace
// diverge from an otherwise identical run (and the per-tag merge order
// feed trackers differently). With ties broken by reader ID then arrival
// sequence the pop order is a deterministic function of the input: the
// stable sort of the arrival stream by (time, reader ID).
type reportHeap []orderedReport

func (h reportHeap) Len() int { return len(h) }
func (h reportHeap) Less(i, j int) bool {
	if h[i].rep.Time != h[j].rep.Time {
		return h[i].rep.Time < h[j].rep.Time
	}
	if h[i].rep.ReaderID != h[j].rep.ReaderID {
		return h[i].rep.ReaderID < h[j].rep.ReaderID
	}
	return h[i].seq < h[j].seq
}
func (h reportHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *reportHeap) Push(x any)      { *h = append(*h, x.(orderedReport)) }
func (h reportHeap) min() rfid.Report { return h[0].rep }
func (h *reportHeap) Pop() any {
	old := *h
	n := len(old)
	rep := old[n-1]
	*h = old[:n-1]
	return rep
}
