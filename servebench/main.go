// Command servebench is the repository's serving benchmark. It runs one
// seeded workload against an in-process rfidrawd, checks the outputs and
// prints the end-to-end metrics, or with -trace 1 replays the same input
// through each layer and prints the per-layer ledger. The last line of
// standard output is one JSON object; a readable report goes to
// standard error. See README.md.
//
// Usage:
//
//	servebench -workload pen-down -seed 1 -seconds 25 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workDir holds everything a run writes (WAL data dirs, span dumps),
// relative to the checkout root the benchmark runs from.
const workDir = ".bench_build"

// maxTrackErrCM is the clean-profile bound the scenario tests hold the
// trace error to (internal/server/scenario_test.go, 0.25 m).
const maxTrackErrCM = 25

// A paced run is invalid, not a latency, when its generator fell behind
// the schedule: when its median report went out more than maxLagP50Ms
// late. A generator that keeps up is late only in brief stalls, which
// the tail of loadgen.lag_ms shows and the latencies, timed from the
// schedule, already include.
const maxLagP50Ms = 2

func main() {
	name := flag.String("workload", "pen-down", "workload: pen-down, long-write or durable-retrace")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "how long the run measures")
	trace := flag.Int("trace", 0, "1 replays the input through each layer and prints the per-layer ledger")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	ctx := context.Background()
	dur := time.Duration(*seconds) * time.Second
	var r *report
	if *trace == 1 {
		r, err = runTraced(ctx, w, *seed, dur)
	} else {
		r, err = runE2E(ctx, w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	r.print(w, *seed)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, checks and failure counts.
type report struct {
	metrics   map[string]metric
	notes     []string
	failures  []string // failed output checks
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records an output check; any failed check fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// account adds a phase's operations to the failure accounting: each tag
// that never produced a point, each point dropped, each failed call.
func (r *report) account(p *phase, callErr error) {
	noPoints := 0
	for _, t := range p.tags {
		if t.points == 0 {
			noPoints++
		}
	}
	r.attempted += len(p.tags) + p.points + p.drops + p.apiCalls
	r.failed += noPoints + p.drops
	if callErr != nil {
		r.failed++
		r.check(false, "%v", callErr)
	}
	r.check(noPoints == 0, "%d of %d tags produced no point", noPoints, len(p.tags))
}

// wait sets wait_ms_p50 and notes the wait's tail with its level and
// sample count. The tail stays out of the metrics: on a shared 2-vCPU
// machine it moved up to 4x between runs of one build (README.md).
func (r *report) wait(xs []float64) {
	d := summarize(xs)
	r.set("wait_ms_p50", d.p50, "ms")
	r.note("wait_ms: n=%d p50=%.3f ms tail=p%g %.3f ms", d.n, d.p50, d.tailAt, d.tail)
	r.check(d.tailAt > 0, "wait_ms: %d samples cannot support a tail", d.n)
}

func (r *report) print(w workload, seed int64) {
	fmt.Fprintf(os.Stderr, "servebench %s seed=%d\n", w.name, seed)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "  #", n)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(os.Stderr, "  failed_ratio %.6f (%d failed of %d attempted)\n", ratio, r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "  CHECK FAILED:", f)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.failures) == 0, max(r.attempted, 1), r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setupRepeats is how many times a run builds the daemon; setup_s is
// the median.
const setupRepeats = 11

// walDir makes a fresh data directory under workDir.
func walDir() (string, error) { return os.MkdirTemp(workDir, "wal-") }

// runE2E measures the end-to-end metrics with tracing off.
func runE2E(ctx context.Context, w workload, seed int64, dur time.Duration) (*report, error) {
	dataDir := ""
	if w.durable {
		var err error
		if dataDir, err = walDir(); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dataDir)
	}
	d, setups, err := setupDaemon(dataDir, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer d.close()
	in, err := newInput(w, seed)
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.set("setup_s", median(setups), "s")
	if w.durable {
		dr := runDurable(ctx, r, d, in, 0, in.lapsFor(dur))
		if dr.ingest > 0 {
			r.set("capacity_rps", float64(dr.all.reports)/dr.ingest.Seconds(), "1/s")
			r.wait(dr.retraces)
			trackErr(r, &dr.all)
			r.set("heap_live_mb", dr.all.heapMB, "MB")
			r.note("%d cycles, %d tags, %d reports; wait_ms is POST /retrace wall time",
				len(dr.cycles), len(dr.all.tags), dr.all.reports)
		}
	} else {
		runOpen(ctx, r, d, in, dur)
	}
	return r, nil
}

// rounds is how many unpaced sessions (capacity) an open-loop run
// alternates with paced ones (latency). Capacity pools the unpaced
// sessions: their reports over their summed time.
const rounds = 5

// runOpen runs an open-loop workload: rounds of an unpaced session, whose
// fixed work measures capacity, then a paced session at the workload's
// offered rate, whose schedule fixes its laps, for latency. The live
// heap is read at the end of the last paced session.
func runOpen(ctx context.Context, r *report, d *daemon, in *input, dur time.Duration) {
	share := dur / (2 * rounds)
	pace := in.w.pacedRPS / in.reportsPerStreamSecond()
	var paced, unpaced phase
	var unpacedTime time.Duration
	first := 0
	for round := range rounds {
		p, err := d.openLoop(ctx, in, load{first: first, laps: in.lapsFor(share), dur: share, window: unpacedWindow(in)})
		r.account(p, err)
		if err != nil {
			return
		}
		first += len(p.laps)
		unpaced.add(p)
		span := p.lastPoint.Sub(p.firstSend)
		unpacedTime += span
		r.note("unpaced session: %d laps, %d reports, %.0f reports/s over %.3f s (sending %.3f s, then %.3f s to the drain call, drain %.1f ms, last point %.3f s after it)",
			len(p.laps), p.reports, float64(p.reports)/span.Seconds(), span.Seconds(), p.sendDone.Sub(p.firstSend).Seconds(),
			p.drainIssued.Sub(p.sendDone).Seconds(), p.drainMs, p.lastPoint.Sub(p.drainIssued).Seconds())
		p, err = d.openLoop(ctx, in, load{first: first, pace: pace, dur: share, heap: round == rounds-1})
		r.account(p, err)
		if err != nil {
			return
		}
		first += len(p.laps)
		paced.add(p)
	}
	r.set("capacity_rps", float64(unpaced.reports)/unpacedTime.Seconds(), "1/s")
	if in.w.firstPoint {
		r.wait(paced.firstLat)
	} else {
		r.wait(paced.pointLat)
	}
	trackErr(r, &paced, &unpaced)
	r.set("heap_live_mb", paced.heapMB, "MB")
	pt, fp, lag := summarize(paced.pointLat), summarize(paced.firstLat), summarize(paced.lag)
	r.note("paced sessions: %d laps, %d tags, %d reports at %.0f reports/s (pace %.1fx real time)", len(paced.laps), len(paced.tags), paced.reports, in.w.pacedRPS, pace)
	r.note("point_ms: n=%d p50=%.3f tail=p%g %.3f (%d points only a drain released excluded)", pt.n, pt.p50, pt.tailAt, pt.tail, paced.held)
	r.note("first_point_ms: n=%d p50=%.3f tail=p%g %.3f", fp.n, fp.p50, fp.tailAt, fp.tail)
	r.note("loadgen.lag_ms: n=%d p50=%.3f p99=%.3f tail=p%g %.3f", lag.n, lag.p50, quantile(paced.lag, 99), lag.tailAt, lag.tail)
	r.note("glyphs %d, drops %d", paced.glyphs, paced.drops)
	r.check(lag.p50 <= maxLagP50Ms, "generator fell behind its schedule (median lag %.3f ms > %d ms): the run is invalid", lag.p50, maxLagP50Ms)
}

// unpacedWindow lets the unpaced sender run about four laps ahead of the
// newest point received.
func unpacedWindow(in *input) time.Duration { return 4 * in.cycle / time.Duration(len(in.tmpl)) }

// durableRun is what a series of durable-retrace cycles measured.
type durableRun struct {
	cycles   []*cycle
	all      phase // every cycle's tags and reports
	retraces []float64
	ingest   time.Duration // summed over cycles, first send to drain done
}

// runDurable runs n durable-retrace cycles on laps first, first+1, …,
// reading the live heap in the last one.
func runDurable(ctx context.Context, r *report, d *daemon, in *input, first, n int) *durableRun {
	dr := &durableRun{}
	for i := range n {
		c, err := d.durableCycle(ctx, in, first+i, i == n-1)
		r.account(&c.phase, err)
		if err != nil {
			return dr
		}
		r.check(c.identical, "cycle %d: two retraces over the same record differ", first+i)
		// A tag the retrace returns no trajectory for is a failed
		// operation. The daemon fails that way on a tag whose tracker
		// ends the stream mid-reacquisition, having traced it live
		// (README.md, "Known failures").
		r.failed += len(c.tagErrs)
		for _, e := range c.tagErrs {
			r.note("FAILED cycle %d (lap template %d): retrace %s", first+i, (first+i)%len(in.tmpl), e)
		}
		dr.cycles = append(dr.cycles, c)
		dr.all.add(&c.phase)
		dr.retraces = append(dr.retraces, c.retraceMs...)
		dr.ingest += c.ingest
	}
	return dr
}

// trackErr sets track_err_cm, the median over tags of each tag's median
// error against ground truth, and checks it.
func trackErr(r *report, phases ...*phase) {
	var errs []float64
	for _, p := range phases {
		for _, t := range p.tags {
			if t.scored {
				errs = append(errs, t.errCM)
			}
		}
	}
	r.check(len(errs) > 0, "no tag's trajectory could be scored")
	e := median(errs)
	r.set("track_err_cm", e, "cm")
	r.check(e <= maxTrackErrCM, "track_err_cm %.2f exceeds the %d cm clean-profile bound", e, maxTrackErrCM)
}

// spanFile is where a traced run writes its spans.
func spanFile(w workload, seed int64) string {
	return filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.ndjson", w.name, seed))
}
