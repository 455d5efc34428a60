package main

import (
	"fmt"
	"strings"
)

// workload is one traffic mix the benchmark runs. The three mixes are
// chosen to load different layers; README.md records why each exists.
type workload struct {
	name string
	// tagsPerLap writers arrive together in each lap; Gen-2 airtime is
	// split among them, so each tag's sweep is tagsPerLap × 25 ms.
	tagsPerLap int
	// minLetters..maxLetters bounds each writer's word length.
	minLetters, maxLetters int
	// pool is how many distinct laps are simulated; lap i replays
	// template i mod pool under fresh EPCs, so the run length is not
	// bounded by simulation cost.
	pool int
	// tracedLaps is the fixed input size of the traced run, so its
	// counts repeat exactly for a seed.
	tracedLaps int
	// workRPS sizes the run's fixed work: a phase that gets s seconds of
	// the run sends the laps this rate covers in s. It sits a little
	// below the capacity measured on a 2-CPU x86-64 container
	// (durable-retrace: reports per second of whole cycles), so a run
	// there takes about its --seconds; the input, and with it the
	// counts, never depends on the speed of the machine running it.
	workRPS float64
	// pacedRPS is the open-loop offered rate of the paced sessions in
	// reports per second, about 30% of capacity: nearer half, capacity's
	// swings on a shared machine turn into queueing and the latencies
	// stop repeating (README.md).
	pacedRPS float64
	// firstPoint makes wait_ms the pen-down delay (scheduled first
	// report to first point) instead of per-point cursor lag.
	firstPoint bool
	// durable runs the session lifecycle cycles with the WAL on.
	durable bool
}

var workloads = []workload{
	{name: "pen-down", tagsPerLap: 8, minLetters: 1, maxLetters: 2, pool: 128, tracedLaps: 24, workRPS: 17000, pacedRPS: 6000, firstPoint: true},
	{name: "long-write", tagsPerLap: 4, minLetters: 7, maxLetters: 8, pool: 192, tracedLaps: 6, workRPS: 60000, pacedRPS: 20000},
	{name: "durable-retrace", tagsPerLap: 4, minLetters: 3, maxLetters: 5, pool: 64, tracedLaps: 8, workRPS: 12000, durable: true},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}
