package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"rfidraw/internal/corpus"
	"rfidraw/internal/geom"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/sim"
	"rfidraw/internal/traj"
)

// lapTemplate is one simulated lap: tagsPerLap writers in one room,
// their merged two-reader report stream in lap-relative time, and the
// ground truth the checks compare against.
type lapTemplate struct {
	reports []rfid.Report
	epcs    []rfid.EPC
	truths  []traj.Trajectory
	// first is each tag's first report time.
	first []time.Duration
	// span is the lap's stream-time length, a whole number of per-tag
	// sweeps so every lap keeps the simulated sweep alignment.
	span time.Duration
}

// input is a workload's seeded input: a pool of simulated laps, replayed
// back to back in stream time under fresh EPCs.
type input struct {
	w     workload
	sweep time.Duration // per-tag sweep: tagsPerLap × the reader sweep
	tmpl  []lapTemplate
	// starts[i] is the stream-time offset of template i within one pass
	// over the pool; cycle is the length of that pass.
	starts []time.Duration
	cycle  time.Duration
	// epcPrefix makes EPCs differ between seeds; lap and tag indices
	// make them unique within a run.
	epcPrefix uint32
}

// lap is one instantiated lap: session stream times and fresh EPCs.
type lap struct {
	index   int
	offset  time.Duration // the lap's start in session stream time
	reports []rfid.Report
	epcs    []rfid.EPC
	first   []time.Duration   // each tag's first report, session stream time
	truths  []traj.Trajectory // lap-relative times
}

// newInput simulates the workload's lap pool from the seed. The same
// seed always yields the same laps. Each lap is written in its own
// simulated room (scatterers, reader phase offsets), so a run averages
// over rooms instead of measuring one.
func newInput(w workload, seed int64) (*input, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &input{w: w, epcPrefix: rng.Uint32()}
	words := wordPool(w.minLetters, w.maxLetters)
	for range w.pool {
		sc, err := sim.New(sim.Config{Seed: rng.Int63()})
		if err != nil {
			return nil, err
		}
		texts := make([]string, w.tagsPerLap)
		starts := make([]geom.Vec2, w.tagsPerLap)
		for i := range texts {
			texts[i] = words[rng.Intn(len(words))]
			if w.minLetters == 1 && rng.Intn(2) == 0 {
				texts[i] = texts[i][:1]
			}
			// A 4×2 grid of writing spots with a few centimetres of
			// jitter, the layout cmd/loadgen uses for several writers.
			starts[i] = geom.Vec2{
				X: 0.35 + 0.45*float64(i%4) + (rng.Float64()-0.5)*0.1,
				Z: 0.55 + 0.5*float64(i/4%3) + (rng.Float64()-0.5)*0.1,
			}
		}
		run, err := sc.RunWords(texts, starts)
		if err != nil {
			return nil, err
		}
		if in.sweep == 0 {
			in.sweep = run.SweepInterval * time.Duration(len(run.Tags))
		}
		t := lapTemplate{
			reports: realtime.MergeStreams(run.ReportsRF...),
			truths:  run.Truths,
		}
		for _, tag := range run.Tags {
			t.epcs = append(t.epcs, tag.EPC)
			for _, rep := range t.reports {
				if rep.EPC == tag.EPC {
					t.first = append(t.first, rep.Time)
					break
				}
			}
		}
		last := t.reports[len(t.reports)-1].Time
		t.span = (last/in.sweep + 1) * in.sweep
		in.starts = append(in.starts, in.cycle)
		in.cycle += t.span
		in.tmpl = append(in.tmpl, t)
	}
	return in, nil
}

// wordPool lists the corpus words with minL..maxL letters. The corpus
// has no 1-letter words; newInput makes those by keeping the first
// letter of a 2-letter one.
func wordPool(minL, maxL int) []string {
	var pool []string
	for _, w := range corpus.All() {
		if len(w) >= max(minL, 2) && len(w) <= maxL {
			pool = append(pool, w)
		}
	}
	return pool
}

// epc is tag k of lap i: prefix, lap and tag index, so no two tags of a
// run share one however many laps it replays.
func (in *input) epc(i, k int) rfid.EPC {
	var e rfid.EPC
	binary.BigEndian.PutUint32(e[0:4], in.epcPrefix)
	binary.BigEndian.PutUint32(e[4:8], uint32(i))
	binary.BigEndian.PutUint32(e[8:12], uint32(k))
	return e
}

// lapOffset is lap i's stream-time start: laps follow each other back
// to back.
func (in *input) lapOffset(i int) time.Duration {
	p := len(in.tmpl)
	return time.Duration(i/p)*in.cycle + in.starts[i%p]
}

// lap instantiates lap i from its template, in the stream time of a
// session whose stream starts at base.
func (in *input) lap(i int, base time.Duration) lap {
	t := &in.tmpl[i%len(in.tmpl)]
	l := lap{
		index:   i,
		offset:  in.lapOffset(i) - base,
		reports: make([]rfid.Report, len(t.reports)),
		truths:  t.truths,
	}
	fresh := make(map[rfid.EPC]rfid.EPC, len(t.epcs))
	for k, e := range t.epcs {
		fresh[e] = in.epc(i, k)
		l.epcs = append(l.epcs, fresh[e])
		l.first = append(l.first, t.first[k]+l.offset)
	}
	for j, rep := range t.reports {
		rep.EPC = fresh[rep.EPC]
		rep.Time += l.offset
		l.reports[j] = rep
	}
	return l
}

// reportsPerStreamSecond is the input's natural report rate: what the
// two readers emit per second of stream time.
func (in *input) reportsPerStreamSecond() float64 {
	n := 0
	for _, t := range in.tmpl {
		n += len(t.reports)
	}
	return float64(n) / in.cycle.Seconds()
}

// lapsFor is how many laps the workload's fixed work gives a phase that
// gets d of the run.
func (in *input) lapsFor(d time.Duration) int {
	n := 0
	for _, t := range in.tmpl {
		n += len(t.reports)
	}
	perLap := float64(n) / float64(len(in.tmpl))
	return max(1, int(math.Round(d.Seconds()*in.w.workRPS/perLap)))
}

// encode writes laps [0, n) as one readerwire stream (Hello, reports),
// the bytes the ingest connection carries.
func (in *input) encode(n int) ([]byte, error) {
	var buf bytes.Buffer
	w := readerwire.NewWriter(&buf)
	if err := w.WriteHello(readerwire.Hello{Proto: readerwire.ProtoVersion, AntennaCount: 4, SweepInterval: in.sweep}); err != nil {
		return nil, err
	}
	for i := range n {
		for _, rep := range in.lap(i, 0).reports {
			if err := w.WriteReport(rep); err != nil {
				return nil, fmt.Errorf("encode lap %d: %w", i, err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
