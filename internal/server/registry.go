package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rfidraw/internal/obs"
	"rfidraw/internal/recognition"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// RegistryConfig tunes the session registry.
type RegistryConfig struct {
	// NewEngine binds a new session to a tracking engine. Required.
	NewEngine EngineFactory

	// WAL, when non-nil, makes every session durable: the pump records
	// its canonical resequenced report stream in a per-session
	// write-ahead log, closed-but-retained sessions are rehydrated into
	// the registry as "recovered" at construction, and retrace /
	// ?from=seq catch-up serve from the record. NewReplayer is then
	// required too.
	WAL *wal.Store
	// NewReplayer binds a WAL replay to a fresh tracking pipeline built
	// like NewEngine's (same deployment, same defaults), optionally
	// under an overridden SearchConfig. Required when WAL is set.
	NewReplayer ReplayerFactory

	// MaxSessions is the hard admission cap on live sessions; opens
	// beyond it are shed with ErrSessionLimit (HTTP 503). Before the cap
	// is reached, admission is governed by the congestion score — see
	// ShedThreshold. Default 128.
	MaxSessions int
	// MaxSubscribers caps stream consumers per session. Default 16.
	MaxSubscribers int
	// SubscriberQueue is the per-subscriber bounded queue depth (events).
	// Default 256.
	SubscriberQueue int
	// IngestBuffer is the per-session ingest inbox depth (bursts);
	// beyond it, reader connections block (TCP backpressure). Default
	// 1024.
	IngestBuffer int
	// IngestBurst caps how many reports one ingest connection batches
	// into a single inbox hand-off: after a blocking read delivers a
	// report, the gateway drains whatever further reports that socket
	// read buffered (up to this cap) and enqueues them as one burst —
	// one channel operation instead of one per report. Default 256.
	IngestBurst int
	// ReorderWindow is how long reports are held to resequence
	// cross-reader skew. Default 25ms.
	ReorderWindow time.Duration
	// GlyphGap is the stream-time silence that ends a stroke and
	// triggers glyph recognition. Default 400ms.
	GlyphGap time.Duration
	// GlyphMinPoints is the minimum stroke length worth classifying.
	// Default 8.
	GlyphMinPoints int
	// NoRecognize disables glyph recognition: no recognizer is built and
	// sessions emit only point events.
	NoRecognize bool

	// Capacity calibrates the congestion score's per-resource
	// normalization; zero fields take generous defaults.
	Capacity Capacity
	// ShedThreshold is the congestion score at or above which new
	// sessions are refused with ErrOverloaded (HTTP 429 + Retry-After).
	// 0 takes the default 0.9; negative disables score-driven shedding
	// (the MaxSessions hard cap still applies).
	ShedThreshold float64
	// ParkThreshold is the score at or above which the pressure loop
	// parks the lowest-cost durable sessions (engine reclaimed, record
	// kept serveable) until the score recovers. 0 takes the default
	// 0.75; negative disables parking under pressure.
	ParkThreshold float64
	// IdleTimeout is the initial idle-expiry deadline for live sessions
	// (mutable at runtime via the control plane). Default 2 minutes.
	IdleTimeout time.Duration
	// RetainFor bounds how long a parked (recovered) session's record is
	// kept with no retrace or catch-up activity before it is forgotten
	// and its log deleted. 0 (the default) retains forever.
	RetainFor time.Duration

	// TraceSampleN seeds the span-sampling knob: record a full
	// stage-by-stage span for 1 in N reports per session. 0 (the
	// default) disables sampling; mutable at runtime via the control
	// plane (trace_sample_n).
	TraceSampleN int

	// Logger, when non-nil, receives structured operational logs and
	// takes precedence over Logf.
	Logger *slog.Logger
	// LogLevel, when non-nil, is the shared level gate the control plane
	// mutates at runtime (log_level); nil builds a private one at Info.
	LogLevel *slog.LevelVar
	// Logf receives operational log lines when Logger is nil; nil
	// discards them. Retained as the legacy logging hook.
	Logf func(format string, args ...any)
}

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 128
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = 16
	}
	if c.SubscriberQueue <= 0 {
		c.SubscriberQueue = 256
	}
	if c.IngestBuffer <= 0 {
		c.IngestBuffer = 1024
	}
	if c.IngestBurst <= 0 {
		c.IngestBurst = 256
	}
	if c.ReorderWindow <= 0 {
		c.ReorderWindow = 25 * time.Millisecond
	}
	if c.GlyphGap <= 0 {
		c.GlyphGap = 400 * time.Millisecond
	}
	if c.GlyphMinPoints <= 0 {
		c.GlyphMinPoints = 8
	}
	if c.ShedThreshold == 0 {
		c.ShedThreshold = 0.9
	}
	if c.ParkThreshold == 0 {
		c.ParkThreshold = 0.75
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	c.Capacity = c.Capacity.withDefaults()
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// SessionSpec describes one session to open: the single creation
// surface Registry.Open, Client.CreateSession, System.OpenSession and
// POST /v1/sessions all accept, so a new per-session knob is one field
// here instead of another constructor pair everywhere.
type SessionSpec struct {
	// ID names the session; "" assigns a random one.
	ID string
	// Sweep, when positive, is the per-tag reader cadence known up
	// front; ingest-fed sessions may leave it 0 and let the first reader
	// Hello announce it.
	Sweep time.Duration
	// Geometry names the session's antenna geometry (deploy registry
	// name); "" is the default deployment. Fixed for the session's
	// lifetime: the engine builds its steering tables from it, the WAL
	// meta records it, and recovery and retrace rebuild the same tables.
	Geometry string
	// Search, when non-nil, overrides the deployment's vote-search
	// configuration for this session. It is recorded in the WAL meta so
	// recovery, retrace and catch-up rebuild the same search the live
	// engine ran. TopK and Levels must fit in [0, 255] (the meta
	// encoding); nil takes the registry's runtime default.
	Search *vote.SearchConfig
	// WAL is the session's durability policy.
	WAL WALPolicy
}

// WALPolicy tunes one session's write-ahead logging.
type WALPolicy struct {
	// Disable opts this session out of the registry's WAL store: no
	// record, no retrace, no parking — an explicitly ephemeral session.
	Disable bool
	// SyncEvery, when positive, overrides the store's report-append
	// fsync cadence for this session's log (1 = sync every report). 0
	// takes the registry's runtime default.
	SyncEvery int
}

// ErrBadSpec reports a SessionSpec that cannot be opened as given.
var ErrBadSpec = errors.New("server: invalid session spec")

// knobs is the registry's mutable runtime configuration: the control
// plane reads and writes it while sessions are being served, so it
// lives behind its own lock instead of in the immutable RegistryConfig.
type knobs struct {
	mu      sync.Mutex
	idle    time.Duration
	retain  time.Duration
	shedAt  float64 // <= 0 disables score-driven shedding
	parkAt  float64 // <= 0 disables parking under pressure
	cap     Capacity
	walSync int                // default SyncEvery for new session logs; 0 = store default
	search  *vote.SearchConfig // default search for new sessions; nil = deployment default
}

// KnobState is a snapshot of the registry's runtime knobs.
type KnobState struct {
	IdleTimeout   time.Duration
	RetainFor     time.Duration
	ShedThreshold float64
	ParkThreshold float64
	Capacity      Capacity
	WALSyncEvery  int
	Search        *vote.SearchConfig
	// TraceSampleN is the span-sampling knob (1-in-N reports, 0 = off).
	TraceSampleN int
	// LogLevel is the structured-logging level gate ("debug", "info",
	// "warn", "error").
	LogLevel string
}

// KnobPatch mutates a subset of the runtime knobs; nil fields keep
// their current value. Threshold values <= 0 disable that policy. A
// Capacity replacement is normalized (zero fields take defaults).
type KnobPatch struct {
	IdleTimeout   *time.Duration
	RetainFor     *time.Duration
	ShedThreshold *float64
	ParkThreshold *float64
	Capacity      *Capacity
	WALSyncEvery  *int
	// SetSearch replaces the default-search knob with Search (which may
	// be nil, restoring the deployment default).
	SetSearch bool
	Search    *vote.SearchConfig
	// TraceSampleN sets the span-sampling knob (0 disables).
	TraceSampleN *int
	// LogLevel sets the structured-logging level gate.
	LogLevel *string
}

// Knobs snapshots the runtime knobs.
func (r *Registry) Knobs() KnobState {
	k := &r.knobs
	k.mu.Lock()
	defer k.mu.Unlock()
	st := KnobState{
		IdleTimeout:   k.idle,
		RetainFor:     k.retain,
		ShedThreshold: k.shedAt,
		ParkThreshold: k.parkAt,
		Capacity:      k.cap,
		WALSyncEvery:  k.walSync,
	}
	if k.search != nil {
		cp := *k.search
		st.Search = &cp
	}
	st.TraceSampleN = int(r.traceSampleN.Load())
	st.LogLevel = levelName(r.levelVar.Level())
	return st
}

// ApplyKnobs mutates the runtime knobs, validating as it goes.
func (r *Registry) ApplyKnobs(p KnobPatch) error {
	if p.IdleTimeout != nil && *p.IdleTimeout <= 0 {
		return fmt.Errorf("%w: idle timeout must be positive", ErrBadSpec)
	}
	if p.RetainFor != nil && *p.RetainFor < 0 {
		return fmt.Errorf("%w: retention must be >= 0", ErrBadSpec)
	}
	if p.WALSyncEvery != nil && *p.WALSyncEvery < 0 {
		return fmt.Errorf("%w: wal sync cadence must be >= 0", ErrBadSpec)
	}
	if p.SetSearch && p.Search != nil {
		if err := validateSearch(p.Search); err != nil {
			return err
		}
	}
	if p.TraceSampleN != nil && *p.TraceSampleN < 0 {
		return fmt.Errorf("%w: trace sample cadence must be >= 0", ErrBadSpec)
	}
	var level slog.Level
	if p.LogLevel != nil {
		var err error
		if level, err = parseLevel(*p.LogLevel); err != nil {
			return err
		}
	}
	if p.TraceSampleN != nil {
		r.traceSampleN.Store(int64(*p.TraceSampleN))
	}
	if p.LogLevel != nil {
		r.levelVar.Set(level)
	}
	k := &r.knobs
	k.mu.Lock()
	defer k.mu.Unlock()
	if p.IdleTimeout != nil {
		k.idle = *p.IdleTimeout
	}
	if p.RetainFor != nil {
		k.retain = *p.RetainFor
	}
	if p.ShedThreshold != nil {
		k.shedAt = *p.ShedThreshold
	}
	if p.ParkThreshold != nil {
		k.parkAt = *p.ParkThreshold
	}
	if p.Capacity != nil {
		k.cap = p.Capacity.withDefaults()
	}
	if p.WALSyncEvery != nil {
		k.walSync = *p.WALSyncEvery
	}
	if p.SetSearch {
		k.search = nil
		if p.Search != nil {
			cp := *p.Search
			k.search = &cp
		}
	}
	return nil
}

// IdleTimeout reads the runtime idle-expiry knob.
func (r *Registry) IdleTimeout() time.Duration {
	r.knobs.mu.Lock()
	defer r.knobs.mu.Unlock()
	return r.knobs.idle
}

// RetainFor reads the runtime retention knob (0 = retain forever).
func (r *Registry) RetainFor() time.Duration {
	r.knobs.mu.Lock()
	defer r.knobs.mu.Unlock()
	return r.knobs.retain
}

func (r *Registry) capacity() Capacity {
	r.knobs.mu.Lock()
	defer r.knobs.mu.Unlock()
	return r.knobs.cap
}

func (r *Registry) shedAt() float64 {
	r.knobs.mu.Lock()
	defer r.knobs.mu.Unlock()
	return r.knobs.shedAt
}

func (r *Registry) parkAt() float64 {
	r.knobs.mu.Lock()
	defer r.knobs.mu.Unlock()
	return r.knobs.parkAt
}

func (r *Registry) defaultSpec(spec SessionSpec) SessionSpec {
	r.knobs.mu.Lock()
	defer r.knobs.mu.Unlock()
	if spec.Search == nil && r.knobs.search != nil {
		cp := *r.knobs.search
		spec.Search = &cp
	}
	if spec.WAL.SyncEvery == 0 {
		spec.WAL.SyncEvery = r.knobs.walSync
	}
	return spec
}

// Registry is the session table: it owns session lifecycle (create,
// lookup, remove, park/resume, idle expiry) and demand-driven admission
// control. It is safe for concurrent use and usable standalone
// (in-process sessions via rfidraw.System.OpenSession) or under a
// Server.
type Registry struct {
	cfg     RegistryConfig
	metrics *Metrics
	rec     *recognition.Recognizer
	knobs   knobs

	// logger is the resolved structured logger (never nil); levelVar is
	// its runtime-mutable level gate.
	logger   *slog.Logger
	levelVar *slog.LevelVar
	// pipeline aggregates every session's stage and end-to-end latency
	// stamps into the /metrics histograms.
	pipeline *obs.Pipeline
	// traceSampleN is the hot-path span-sampling knob (1-in-N reports;
	// 0 = off), atomic because the pump reads it per release.
	traceSampleN atomic.Int64
	// stripeSeq deals histogram stripes to new sessions round-robin.
	stripeSeq atomic.Int64

	mu       sync.Mutex
	sessions map[string]*Session
	// live counts pipelined (non-recovered) entries for admission
	// control: recovered sessions hold no engine or goroutines, so they
	// do not occupy MaxSessions slots (they do reserve their IDs). Only
	// setLocked changes it.
	live   int
	closed bool

	// scoreMu guards the cached congestion score (see cost.go).
	scoreMu sync.Mutex
	score   NodeScore
}

// NewRegistry builds a registry. cfg.NewEngine is required. With
// cfg.WAL set, closed-but-retained session logs found in the store are
// rehydrated as recovered sessions before the registry opens.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if cfg.NewEngine == nil {
		return nil, errors.New("server: RegistryConfig.NewEngine is required")
	}
	if cfg.WAL != nil && cfg.NewReplayer == nil {
		return nil, errors.New("server: RegistryConfig.NewReplayer is required with WAL")
	}
	cfg = cfg.withDefaults()
	r := &Registry{
		cfg:      cfg,
		metrics:  &Metrics{},
		sessions: map[string]*Session{},
		pipeline: &obs.Pipeline{},
		levelVar: cfg.LogLevel,
	}
	if r.levelVar == nil {
		r.levelVar = &slog.LevelVar{}
	}
	r.logger = cfg.Logger
	if r.logger == nil {
		r.logger = slog.New(newLogfHandler(cfg.Logf, r.levelVar))
	}
	if cfg.TraceSampleN > 0 {
		r.traceSampleN.Store(int64(cfg.TraceSampleN))
	}
	r.knobs = knobs{
		idle:   cfg.IdleTimeout,
		retain: cfg.RetainFor,
		shedAt: cfg.ShedThreshold,
		parkAt: cfg.ParkThreshold,
		cap:    cfg.Capacity,
	}
	if !cfg.NoRecognize {
		rec, err := newRecognizer()
		if err != nil {
			return nil, err
		}
		r.rec = rec
	}
	if cfg.WAL != nil {
		if err := r.recover(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// recover rehydrates every retained session log into the registry in the
// recovered state. Unreadable logs are logged and skipped, never fatal —
// recovery's job is to bring back what the disk still holds.
func (r *Registry) recover() error {
	ids, err := r.cfg.WAL.Sessions()
	if err != nil {
		return fmt.Errorf("server: wal recovery: %w", err)
	}
	for _, id := range ids {
		meta, stats, err := r.cfg.WAL.Scan(id)
		if err != nil {
			r.logger.Warn("wal recovery: session unreadable", "session", id, "err", err)
			continue
		}
		if stats.TornBytes > 0 {
			r.metrics.WALTornBytes.Add(stats.TornBytes)
			r.logger.Warn("wal recovery: dropped torn bytes", "session", id, "bytes", stats.TornBytes)
		}
		r.setLocked(id, newRecoveredSession(r, sessionRecord{meta: meta, head: stats.LastSeq, reports: int64(stats.Reports)}))
		r.metrics.SessionsRecovered.Add(1)
		r.logger.Info("wal recovery: session rehydrated",
			"session", id, "reports", stats.Reports, "clean", stats.CleanClose)
	}
	return nil
}

// WALUsage reports the registry's on-disk log footprint (metrics); zero
// without a WAL store.
func (r *Registry) WALUsage() wal.Usage {
	if r.cfg.WAL == nil {
		return wal.Usage{}
	}
	return r.cfg.WAL.Usage()
}

// Metrics exposes the registry's counter set.
func (r *Registry) Metrics() *Metrics { return r.metrics }

// Pipeline exposes the registry's latency histograms.
func (r *Registry) Pipeline() *obs.Pipeline { return r.pipeline }

// Logger exposes the registry's resolved structured logger.
func (r *Registry) Logger() *slog.Logger { return r.logger }

// TraceSampleN reads the span-sampling knob (0 = off).
func (r *Registry) TraceSampleN() int { return int(r.traceSampleN.Load()) }

// nextStripe deals the next session's histogram stripe.
func (r *Registry) nextStripe() int { return int(r.stripeSeq.Add(1)) }

// Open creates a session from a spec. Opens at the MaxSessions hard cap
// fail with ErrSessionLimit (HTTP 503); below it, a congestion score at
// or past the shed threshold fails with an OverloadError wrapping
// ErrOverloaded (HTTP 429 + Retry-After) — admission is driven by what
// the node is actually spending, not the flat count alone.
func (r *Registry) Open(spec SessionSpec) (*Session, error) {
	if spec.ID == "" {
		spec.ID = randomID()
	} else if err := validateID(spec.ID); err != nil {
		return nil, err
	}
	if spec.Search != nil {
		if err := validateSearch(spec.Search); err != nil {
			return nil, err
		}
		cp := *spec.Search
		spec.Search = &cp
	}
	spec = r.defaultSpec(spec)
	// First pass: the checks that need no cost sampling. The hard cap is
	// examined before the score so a full node always answers 503, and
	// an ID conflict is never reported as overload.
	if err := r.admitLocked(spec.ID); err != nil {
		return nil, err
	}
	// Score-driven admission: sample outside r.mu (sampling takes
	// per-session locks).
	if shedAt := r.shedAt(); shedAt > 0 {
		sc := r.refreshCongestionIfStale(time.Now())
		if sc.Score >= shedAt {
			r.metrics.Shed.Add(1)
			r.metrics.AdmissionRejected.Add(1)
			return nil, &OverloadError{Score: sc.Score, RetryAfter: retryAfterFor(sc.Score, shedAt)}
		}
	}
	r.mu.Lock()
	// Re-check under the lock: a racing open may have taken the last
	// slot or the ID while the score was sampling.
	if err := r.admitLockedUnsafe(spec.ID); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	s := newSession(r, spec, resumeState{})
	r.setLocked(spec.ID, s)
	r.mu.Unlock()
	r.metrics.SessionsCreated.Add(1)
	return s, nil
}

// setLocked points the table entry for id at s (nil deletes it). It is
// the one place r.sessions changes, so the live count and the
// sessions_active / sessions_retained gauges move with the table: live
// entries count in the first two, recovered ones in the third. Caller
// holds r.mu.
func (r *Registry) setLocked(id string, s *Session) {
	if old, ok := r.sessions[id]; ok {
		r.countLocked(old, -1)
		delete(r.sessions, id)
	}
	if s != nil {
		r.sessions[id] = s
		r.countLocked(s, 1)
	}
}

func (r *Registry) countLocked(s *Session, d int) {
	if !s.pipelined() {
		r.metrics.SessionsRetained.Add(int64(d))
		return
	}
	r.live += d
	r.metrics.SessionsActive.Add(int64(d))
}

// admitLocked runs the lock-scope admission checks under r.mu.
func (r *Registry) admitLocked(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.admitLockedUnsafe(id)
}

// admitLockedUnsafe is admitLocked's body; the caller holds r.mu.
func (r *Registry) admitLockedUnsafe(id string) error {
	if r.closed {
		return ErrSessionClosed
	}
	if _, ok := r.sessions[id]; ok {
		// Recovered sessions reserve their IDs too: DELETE the retained
		// record (or resume it) before reusing one.
		return ErrSessionExists
	}
	if r.live >= r.cfg.MaxSessions {
		r.metrics.Shed.Add(1)
		return ErrSessionLimit
	}
	return nil
}

// validateSearch bounds a per-session search override to what the WAL
// meta can record (and sane mode values).
func validateSearch(sc *vote.SearchConfig) error {
	if sc.Mode != vote.SearchHierarchical && sc.Mode != vote.SearchDense {
		return fmt.Errorf("%w: unknown search mode %d", ErrBadSpec, sc.Mode)
	}
	if sc.TopK < 0 || sc.TopK > 255 {
		return fmt.Errorf("%w: search top_k %d outside [0, 255]", ErrBadSpec, sc.TopK)
	}
	if sc.Levels < 0 || sc.Levels > 255 {
		return fmt.Errorf("%w: search levels %d outside [0, 255]", ErrBadSpec, sc.Levels)
	}
	return nil
}

// Get looks a session up.
func (r *Registry) Get(id string) (*Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	return s, ok
}

// List returns the live sessions sorted by ID.
func (r *Registry) List() []*Session {
	r.mu.Lock()
	out := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len reports the live session count.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Remove closes a session, deletes it from the table AND deletes its
// retained WAL record if any (an explicit delete means forget),
// reporting whether it existed.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	s, ok := r.sessions[id]
	if ok && s.lifecycle() == stateDraining {
		// Idle expiry or a park claimed this session and owns its
		// teardown (it is still in the table only until its recovered
		// successor replaces it). Report not-found: a later DELETE finds
		// the successor and wins.
		ok = false
	}
	if ok {
		r.setLocked(id, nil)
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	s.Close()
	if r.cfg.WAL != nil {
		if err := r.cfg.WAL.Remove(id); err != nil {
			r.logger.Error("wal remove failed", "session", id, "err", err)
		}
	}
	return true
}

// RefreshCongestion re-samples every live session's cost and rolls the
// node congestion score up from the sums (see cost.go). It is called by
// the server's pressure loop, by admission when the cached score has
// gone stale, and by /metrics and the control API so operators always
// read a current value.
func (r *Registry) RefreshCongestion(now time.Time) NodeScore {
	capacity := r.capacity()
	r.mu.Lock()
	live := make([]*Session, 0, r.live)
	for _, s := range r.sessions {
		if s.lifecycle() == stateLive {
			live = append(live, s)
		}
	}
	liveCount := r.live
	maxSessions := r.cfg.MaxSessions
	r.mu.Unlock()
	var parts ScoreComponents
	for _, s := range live {
		c := s.sampleCost(now, capacity)
		parts.SearchEvals += c.EvalsPerSec
		parts.WALBytes += c.WALBytesPerSec
		parts.ReorderLate += c.LatePerSec
		parts.TierPressure += c.DowngradesPerSec
		if c.Backlog > parts.Backlog {
			parts.Backlog = c.Backlog
		}
	}
	parts.SearchEvals /= capacity.SearchEvalsPerSec
	parts.WALBytes /= capacity.WALBytesPerSec
	parts.ReorderLate /= capacity.LatePerSec
	parts.Backlog /= capacity.Backlog
	parts.TierPressure /= capacity.DowngradesPerSec
	parts.SessionSlots = float64(liveCount) / float64(maxSessions)
	score := NodeScore{Score: maxScore(parts), Components: parts, SampledAt: now}
	r.scoreMu.Lock()
	r.score = score
	r.scoreMu.Unlock()
	r.metrics.setCongestion(score.Score)
	return score
}

// congestionStaleness bounds how old a cached score admission will act
// on before re-sampling (registries without a pressure loop refresh on
// the admission path itself).
const congestionStaleness = 500 * time.Millisecond

// Congestion returns the cached congestion score.
func (r *Registry) Congestion() NodeScore {
	r.scoreMu.Lock()
	defer r.scoreMu.Unlock()
	return r.score
}

func (r *Registry) refreshCongestionIfStale(now time.Time) NodeScore {
	r.scoreMu.Lock()
	sc := r.score
	r.scoreMu.Unlock()
	if !sc.SampledAt.IsZero() && now.Sub(sc.SampledAt) < congestionStaleness {
		return sc
	}
	return r.RefreshCongestion(now)
}

// ParkUnderPressure is the pressure loop's relief valve: while the
// congestion score sits at or above the park threshold, it parks the
// lowest-cost durable live sessions — the sessions whose records can be
// rebuilt from disk for the least lost value — one at a time, until the
// score recovers or no candidates remain. Returns the parked IDs.
func (r *Registry) ParkUnderPressure(now time.Time) []string {
	parkAt := r.parkAt()
	if parkAt <= 0 || r.cfg.WAL == nil {
		return nil
	}
	sc := r.RefreshCongestion(now)
	if sc.Score < parkAt {
		return nil
	}
	type cand struct {
		s    *Session
		cost float64
	}
	r.mu.Lock()
	cands := make([]cand, 0, r.live)
	for _, s := range r.sessions {
		if s.lifecycle() == stateLive && s.WALSeq() > 0 {
			cands = append(cands, cand{s: s, cost: s.Cost().Cost})
		}
	}
	r.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].s.ID < cands[j].s.ID
	})
	var parked []string
	for _, c := range cands {
		if len(parked) > 0 {
			// Parked sessions leave the live set, so a re-roll drops their
			// contribution; stop as soon as the node is back under.
			if sc = r.RefreshCongestion(now); sc.Score < parkAt {
				break
			}
		}
		if err := r.parkSession(c.s, "pressure"); err == nil {
			parked = append(parked, c.s.ID)
			r.logger.Info("session parked under pressure", "session", c.s.ID, "score", sc.Score)
		}
	}
	return parked
}

// Park parks one live durable session on operator request: the session
// is closed (engine and goroutines reclaimed, readers and subscribers
// disconnected) and a recovered entry replaces it under the same ID,
// serveable (retrace, catch-up) and resumable. Parking an already-parked
// session is a no-op.
func (r *Registry) Park(id string) error {
	r.mu.Lock()
	s, ok := r.sessions[id]
	r.mu.Unlock()
	if !ok {
		return ErrUnknownSession
	}
	return r.parkSession(s, "operator")
}

func (r *Registry) parkSession(s *Session, reason string) error {
	if r.cfg.WAL == nil || s.WALSeq() == 0 {
		return ErrNotDurable
	}
	r.mu.Lock()
	if r.sessions[s.ID] != s {
		r.mu.Unlock()
		return ErrUnknownSession
	}
	claimed := s.transition(stateDraining, nil)
	r.mu.Unlock()
	if !claimed {
		if s.Recovered() {
			return nil // already parked: the verb is idempotent
		}
		return ErrNotLive
	}
	s.timeline.Record(obs.EventPark, reason)
	r.metrics.SessionsParked.Add(1)
	r.park(s)
	return nil
}

// park closes a claimed (draining) session and installs its recovered
// successor under the same ID, built by the constructor startup
// recovery uses, unless the entry changed meanwhile (registry close).
// The closed session leaves the table, and with it its engine and inbox.
func (r *Registry) park(s *Session) {
	s.Close()
	rec := newRecoveredSession(r, s.record())
	r.mu.Lock()
	if r.sessions[s.ID] == s {
		r.setLocked(s.ID, rec)
	}
	r.mu.Unlock()
}

// Resume brings a parked (recovered) session back live: a fresh session
// under the same ID, geometry and search configuration, its write-ahead
// log reopened for append (never truncated) with sequence numbers
// continuing past the retained head — so a later retrace replays the
// whole record, pre-park and post-resume, as one stream. Resume is
// gated by the MaxSessions hard cap but not the congestion score: an
// operator resuming a session is explicitly spending headroom.
func (r *Registry) Resume(id string) (*Session, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrSessionClosed
	}
	old, ok := r.sessions[id]
	if !ok {
		r.mu.Unlock()
		return nil, ErrUnknownSession
	}
	if !old.Recovered() {
		r.mu.Unlock()
		return nil, ErrNotParked
	}
	if r.cfg.WAL == nil {
		r.mu.Unlock()
		return nil, ErrNoWAL
	}
	if r.live >= r.cfg.MaxSessions {
		r.mu.Unlock()
		r.metrics.Shed.Add(1)
		return nil, ErrSessionLimit
	}
	sweep := time.Duration(old.sweepNs.Load())
	if sweep <= 0 || old.WALSeq() == 0 {
		r.mu.Unlock()
		return nil, ErrNotDurable
	}
	spec := SessionSpec{
		ID:       id,
		Sweep:    sweep,
		Geometry: old.geometry,
		Search:   old.search,
		WAL:      old.walPolicy,
	}
	s := newSession(r, spec, resumeState{from: old.WALSeq(), created: old.Created, timeline: old.timeline})
	r.setLocked(id, s)
	r.mu.Unlock()
	old.Close()
	r.metrics.SessionsResumed.Add(1)
	r.logger.Info("session resumed", "session", id, "from_seq", s.resumeFrom)
	return s, nil
}

// ExpireIdle closes sessions idle beyond the timeout (no ingest
// activity, readers or subscribers), returning their IDs. Expiry claims
// each live entry atomically (live → draining under Session.expirable)
// so an attach racing the expiry either keeps the session alive or is
// refused, never bound to a session mid-teardown. WAL-backed sessions
// that recorded anything are parked (see park); the rest are removed.
func (r *Registry) ExpireIdle(now time.Time, idle time.Duration) []string {
	// The retain decision is taken at the claim, BEFORE the teardown:
	// Session.Close appends the log's close record (bumping the head), so
	// re-evaluating afterwards could flip an empty session from forget to
	// retain after its table entry is gone.
	type claimed struct {
		s      *Session
		retain bool
	}
	var expired []claimed
	r.mu.Lock()
	for id, s := range r.sessions {
		if !s.transition(stateDraining, s.expirable(now, idle)) {
			continue
		}
		c := claimed{s: s, retain: r.retainOnExpiry(s)}
		if !c.retain {
			r.setLocked(id, nil)
		}
		expired = append(expired, c)
	}
	r.mu.Unlock()
	ids := make([]string, 0, len(expired))
	for _, c := range expired {
		r.metrics.SessionsExpired.Add(1)
		if c.retain {
			c.s.timeline.Record(obs.EventPark, "idle expiry")
			r.park(c.s)
		} else {
			c.s.Close()
			if r.cfg.WAL != nil {
				// A forgotten expiry must not leave an orphan record for the
				// next restart to resurrect.
				if err := r.cfg.WAL.Remove(c.s.ID); err != nil {
					r.logger.Error("wal remove failed", "session", c.s.ID, "err", err)
				}
			}
		}
		ids = append(ids, c.s.ID)
	}
	sort.Strings(ids)
	return ids
}

// ExpireRetained forgets recovered sessions whose records have seen no
// retrace or catch-up activity for the retention deadline, deleting
// their logs. retain <= 0 retains forever (the default).
func (r *Registry) ExpireRetained(now time.Time, retain time.Duration) []string {
	if retain <= 0 || r.cfg.WAL == nil {
		return nil
	}
	var victims []*Session
	r.mu.Lock()
	for id, s := range r.sessions {
		if s.Recovered() && now.Sub(s.idleSince()) >= retain {
			r.setLocked(id, nil)
			victims = append(victims, s)
		}
	}
	r.mu.Unlock()
	ids := make([]string, 0, len(victims))
	for _, s := range victims {
		s.Close()
		r.metrics.SessionsExpired.Add(1)
		if err := r.cfg.WAL.Remove(s.ID); err != nil {
			r.logger.Error("wal remove failed", "session", s.ID, "err", err)
		}
		ids = append(ids, s.ID)
	}
	sort.Strings(ids)
	return ids
}

// retainOnExpiry reports whether an expiring session's record outlives
// its engine: it does when durability is on and the session logged
// anything.
func (r *Registry) retainOnExpiry(s *Session) bool {
	return r.cfg.WAL != nil && s.WALSeq() > 0
}

// Close closes every session and refuses further opens. Retained WAL
// records survive (that is the point: the next daemon recovers them).
// Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	sessions := make([]*Session, 0, len(r.sessions))
	for id, s := range r.sessions {
		sessions = append(sessions, s)
		r.setLocked(id, nil)
	}
	r.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
}

// validateID enforces the session-ID charset: IDs travel in URL paths
// (GET /v1/sessions/{id}) and the one-line ingest preamble, so
// whitespace, slashes and control bytes would create unaddressable
// sessions.
func validateID(id string) error {
	if len(id) > 64 {
		return fmt.Errorf("%w: id longer than 64 bytes", ErrBadSessionID)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("%w: byte %q in %q", ErrBadSessionID, c, id)
		}
	}
	return nil
}

// randomID draws a 12-hex-char session ID.
func randomID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// constant-prefix timestamp if it somehow does.
		return "s" + hex.EncodeToString([]byte(time.Now().Format("150405.000")))[:11]
	}
	return hex.EncodeToString(b[:])
}
