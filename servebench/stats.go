package main

import (
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles a tail may be reported at, highest
// first. They are few and far apart so that a run's sample count, which
// varies a little with the seed, does not move its tail between levels.
var tailLevels = []float64{99.9, 99, 95, 90, 50}

// dist summarizes one sample set: median and tail by nearest rank.
type dist struct {
	n      int
	p50    float64
	tail   float64
	tailAt float64 // the percentile the tail is reported at; 0 when n < 11
}

// summarize computes the median and the highest tail level that has at
// least ten samples beyond it.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{n: len(s), p50: s[rank(len(s), 50)]}
	for _, p := range tailLevels {
		if i := rank(len(s), p); len(s)-1-i >= 10 {
			d.tail, d.tailAt = s[i], p
			break
		}
	}
	return d
}

// rank is the nearest-rank index of percentile p among n sorted samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(i, 0), n-1)
}

func median(xs []float64) float64 { return quantile(xs, 50) }

// quantile is percentile p of xs by nearest rank; 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// schedule maps a session's stream time to wall time for a paced
// replay: stream time 0 is due at start, and stream time runs pace
// times faster than wall time.
type schedule struct {
	start time.Time
	pace  float64
}

// due is when the report stamped t is due to be sent.
func (s schedule) due(t time.Duration) time.Time {
	return s.start.Add(time.Duration(float64(t) / s.pace))
}

// pointLatency is a point's delay from when it became computable on the
// schedule to its receipt: a sweep starting at t can only close once the
// tag's next sweep begins, sweep later (cmd/loadgen's definition).
func (s schedule) pointLatency(t, sweep time.Duration, recv time.Time) time.Duration {
	return max(recv.Sub(s.due(t+sweep)), 0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
