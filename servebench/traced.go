package main

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/wal"
)

// maxPasses caps the traced run's replay passes.
const maxPasses = 10

// runTraced prints the per-layer ledger. It drives the daemon once over
// the traced input (for the server and generator layers), then replays
// that input single-threaded through the layers, untraced and traced,
// and through bare trackers and the engine, pass after pass until the
// run's time is up. Counts come from every pass and must agree; timings
// are medians (engine, replay) or per-pass means (span self times).
func runTraced(ctx context.Context, w workload, seed int64, dur time.Duration) (*report, error) {
	start := time.Now()
	in, err := newInput(w, seed)
	if err != nil {
		return nil, err
	}
	dataDir := ""
	var store *wal.Store
	if w.durable {
		if dataDir, err = walDir(); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dataDir)
		ledgerDir, err := walDir()
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(ledgerDir)
		if store, err = wal.Open(ledgerDir, wal.Options{}); err != nil {
			return nil, err
		}
	}
	d, _, err := setupDaemon(dataDir, 1)
	if err != nil {
		return nil, err
	}
	defer d.close()
	r := newReport()
	capacity := serverPass(ctx, r, d, in)

	laps := make([]lap, w.tracedLaps)
	for i := range laps {
		laps[i] = in.lap(i, 0)
	}
	sys, err := newCoreSystem()
	if err != nil {
		return nil, err
	}
	ly, err := newLayers(sys, in, laps, store)
	if err != nil {
		return nil, err
	}
	all := ly.allReports()
	var (
		counts                         *layerCounts
		untraced, traced, bare, e1, eN []float64
		self                           = map[string]int64{}
		calls                          map[string]int
		spans                          []span
		passes                         int
		tracedWall                     time.Duration
	)
	var pass time.Duration // the last pass's length
	for passes < maxPasses && (passes == 0 || time.Since(start)+pass < dur) {
		passes++
		passStart := time.Now()
		t0 := passStart
		c, err := ly.run(nil)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, time.Since(t0).Seconds())
		tr := newTracer()
		t0 = time.Now()
		ct, err := ly.run(tr)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		tracedWall += wall
		traced = append(traced, wall.Seconds())
		for _, x := range []*layerCounts{c, ct} {
			if counts == nil {
				counts = x
			}
			r.check(reflect.DeepEqual(*counts, *x), "pass %d: layer counts differ from the first pass", passes)
		}
		s, n := selfByName(tr.spans)
		for k, v := range s {
			self[k] += v
		}
		calls, spans = n, tr.spans
		dt, err := ly.trackersOnly(all)
		if err != nil {
			return nil, err
		}
		bare = append(bare, dt.Seconds())
		for _, v := range []struct {
			shards int
			into   *[]float64
		}{{1, &e1}, {runtime.GOMAXPROCS(0), &eN}} {
			dt, err := ly.engineRun(all, v.shards)
			if err != nil {
				return nil, err
			}
			*v.into = append(*v.into, dt.Seconds())
		}
		pass = time.Since(passStart)
	}
	if err := writeSpans(spanFile(w, seed), spans); err != nil {
		return nil, err
	}
	ledger(r, counts, self, calls, passes, tracedWall)
	reports := float64(counts.reports)
	r.set("engine.rps_1shard", reports/median(e1), "1/s")
	r.set("engine.rps_nshard", reports/median(eN), "1/s")
	r.set("engine.overhead_ns_per_report", (median(e1)-median(bare))*1e9/reports, "ns")
	r.set("pipeline.single_thread_rps", reports/median(untraced), "1/s")
	ratios := make([]float64, len(traced))
	for i := range traced {
		ratios[i] = traced[i] / untraced[i]
	}
	r.set("trace.overhead_ratio", median(ratios), "ratio")
	r.set("server.share", 1-capacity/(reports/median(eN)), "ratio")
	r.check(counts.noPoints == 0, "replay: %d of %d tags produced no point", counts.noPoints, counts.tags)
	// A failed retrace of a tag the trackers traced is a failed
	// operation, as in the end-to-end run.
	r.attempted += counts.tags
	r.failed += counts.replayFailed
	if counts.replayFailed > 0 {
		r.note("FAILED: engine.Replayer returned no trajectory for %d of %d tags", counts.replayFailed, counts.tags)
	}
	e := median(counts.errCM)
	r.check(e <= maxTrackErrCM, "replay: track error %.2f cm exceeds the %d cm bound", e, maxTrackErrCM)
	r.note("%d passes over %d laps (%d reports, %d tags); spans of the last pass in %s", passes, len(laps), counts.reports, counts.tags, spanFile(w, seed))
	r.note("server pass: capacity %.0f reports/s on the same input", capacity)
	return r, nil
}

// serverPass drives the daemon over the traced input, with fresh EPCs:
// a paced and an unpaced session for the open-loop workloads, one
// durable cycle per lap otherwise. It sets the server.* and loadgen.*
// layer metrics, and returns the capacity it measured.
func serverPass(ctx context.Context, r *report, d *daemon, in *input) float64 {
	// Lap first+i replays the template of lap i: first is a whole number
	// of pool cycles past the laps the layer replay uses.
	first := (in.w.tracedLaps/len(in.tmpl) + 1) * len(in.tmpl)
	scratch := newReport()
	var phases []*phase
	var capacity float64
	if in.w.durable {
		dr := runDurable(ctx, scratch, d, in, first, in.w.tracedLaps)
		for _, c := range dr.cycles {
			phases = append(phases, &c.phase)
		}
		capacity = float64(dr.all.reports) / dr.ingest.Seconds()
		r.set("loadgen.lag_ms_tail", 0, "ms")
		r.set("server.stream_bytes_per_point", 0, "B")
	} else {
		pace := in.w.pacedRPS / in.reportsPerStreamSecond()
		budget := time.Duration(float64(in.cycle)/pace) + apiTimeout
		paced, err := d.openLoop(ctx, in, load{first: first, laps: in.w.tracedLaps, pace: pace, dur: budget})
		scratch.account(paced, err)
		before := d.streamBytes.Load()
		unpaced, err := d.openLoop(ctx, in, load{first: 2 * first, laps: in.w.tracedLaps, dur: apiTimeout, window: unpacedWindow(in)})
		scratch.account(unpaced, err)
		if paced != nil && unpaced != nil && err == nil {
			phases = append(phases, paced, unpaced)
			capacity = float64(unpaced.reports) / unpaced.lastPoint.Sub(unpaced.firstSend).Seconds()
			r.set("loadgen.lag_ms_tail", summarize(paced.lag).tail, "ms")
			r.set("server.stream_bytes_per_point", float64(d.streamBytes.Load()-before)/float64(max(unpaced.points, 1)), "B")
		}
	}
	var create, drain, del []float64
	for _, p := range phases {
		create, drain, del = append(create, p.createMs), append(drain, p.drainMs), append(del, p.deleteMs)
	}
	r.set("server.create_ms", median(create), "ms")
	r.set("server.drain_ms", median(drain), "ms")
	r.set("server.delete_ms", median(del), "ms")
	r.attempted += scratch.attempted
	r.failed += scratch.failed
	for _, f := range scratch.failures {
		r.check(false, "server pass: %s", f)
	}
	return capacity
}

// ledger turns one traced replay's counts and span self times into the
// per-layer metrics. self holds self time summed over passes.
func ledger(r *report, c *layerCounts, self map[string]int64, calls map[string]int, passes int, tracedWall time.Duration) {
	per := func(name string) float64 { return float64(self[name]) / float64(passes) }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tags, reports, points := float64(c.tags), float64(c.reports), float64(c.points)
	r.set("readerwire.decode_ns_per_report", div(per(spanDecode), reports), "ns")
	r.set("realtime.acquire_ms_per_tag", div(per(spanAcquire)/1e6, tags), "ms")
	r.set("realtime.acquire_attempts_per_tag", div(float64(c.attempts), tags), "count")
	r.set("realtime.acquire_success_ratio", div(float64(c.acquired), float64(c.attempts)), "ratio")
	tracker := per(spanWarmup) + per(spanAcquire) + per(spanTrack)
	r.set("realtime.acquire_time_share", div(per(spanAcquire), tracker), "ratio")
	r.set("realtime.track_us_per_point", div(per(spanTrack)/1e3, float64(c.trackPoints)), "us")
	r.set("realtime.warmup_ns_per_report", div(per(spanWarmup), float64(c.warmupReports)), "ns")
	r.set("realtime.reacquisitions_per_tag", div(float64(c.reacquisitions), tags), "count")
	r.set("realtime.points_per_tag", div(points, tags), "count")
	r.set("vote.grid_evals_per_point", div(float64(c.evals), points), "count")
	r.set("tracing.hypotheses_mean", div(float64(c.hypotheses), points), "count")
	r.set("tracing.retirements_per_tag", div(float64(c.retirements), tags), "count")
	r.set("tracing.leader_switches_per_tag", div(float64(c.switches), tags), "count")
	r.set("recognition.classify_us_per_glyph", div(per(spanClassify)/1e3, float64(calls[spanClassify])), "us")
	r.set("recognition.glyphs_per_tag", div(float64(c.glyphs), tags), "count")
	r.set("wal.append_ns_per_report", div(per(spanAppend), reports), "ns")
	r.set("wal.bytes_per_report", div(float64(c.walBytes), reports), "B")
	r.set("wal.replay_ns_per_record", div(per(spanReplay), float64(c.walRecords)), "ns")
	r.set("replay.ns_per_report", div(per(spanReplayer), reports), "ns")
	var sum int64
	for _, v := range self {
		sum += v
	}
	ratio := div(float64(sum), float64(tracedWall))
	r.set("trace.self_sum_ratio", ratio, "ratio")
	r.check(ratio > 0.95 && ratio <= 1.001, "span self times sum to %.4f of the traced wall time, outside [0.95, 1.001]", ratio)
	r.note("tracker time: warmup %.1f%%, acquire %.1f%%, track %.1f%%",
		100*div(per(spanWarmup), tracker), 100*div(per(spanAcquire), tracker), 100*div(per(spanTrack), tracker))
	for _, name := range []string{spanLap, spanDecode, spanWarmup, spanAcquire, spanTrack, spanClassify, spanAppend, spanReplay, spanReplayer} {
		if calls[name] > 0 {
			r.note("self %-22s %8d spans %10.3f ms/pass %6.2f%%", name, calls[name], per(name)/1e6, 100*div(per(name), float64(tracedWall)/float64(passes)))
		}
	}
}

// newCoreSystem builds the positioning system the way rfidraw.New does
// for the daemon, for the layers the replay calls directly.
func newCoreSystem() (*core.System, error) {
	dep, err := deploy.DefaultRFIDraw()
	if err != nil {
		return nil, err
	}
	return core.NewSystem(dep, core.Config{Plane: geom.Plane{Y: planeDistanceM}, Region: deploy.DefaultRegion()})
}
