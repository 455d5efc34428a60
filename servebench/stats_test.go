package main

import (
	"testing"
	"time"
)

func TestScheduleLatency(t *testing.T) {
	start := time.Unix(100, 0)
	s := schedule{start: start, pace: 4}
	if got, want := s.due(2*time.Second), start.Add(500*time.Millisecond); !got.Equal(want) {
		t.Fatalf("due(2s) = %v, want %v", got, want)
	}
	// A point of the sweep starting at 2 s becomes computable when the
	// next sweep begins, 200 ms of stream time later: at 550 ms wall.
	recv := start.Add(600 * time.Millisecond)
	if got := s.pointLatency(2*time.Second, 200*time.Millisecond, recv); got != 50*time.Millisecond {
		t.Fatalf("pointLatency = %v, want 50ms", got)
	}
	if got := s.pointLatency(2*time.Second, 200*time.Millisecond, start.Add(540*time.Millisecond)); got != 0 {
		t.Fatalf("a point received before it was computable has latency %v, want 0", got)
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := summarize(xs)
	if d.p50 != 50 || d.tailAt != 90 || d.tail != 90 {
		t.Fatalf("100 samples: p50=%v tail p%v=%v, want p50=50 tail p90=90", d.p50, d.tailAt, d.tail)
	}
	// 99 samples leave only nine beyond p90, so the tail drops to p50.
	d = summarize(xs[:99])
	if d.tailAt != 50 || d.tail != 50 {
		t.Fatalf("99 samples: tail p%v=%v, want p50=50", d.tailAt, d.tail)
	}
	if d := summarize(xs[:10]); d.tailAt != 0 {
		t.Fatalf("10 samples support no tail, got p%v", d.tailAt)
	}
}
