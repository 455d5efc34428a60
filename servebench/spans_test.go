package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "lap", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a
		{Name: "c", Parent: 1, Start: 12, End: 15},
		{Name: "d", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "lap", Parent: -1, Start: 200, End: 210},
	}
	want := []int64{100 - 40 - 10, 20 - 3, 30, 3, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	self, count := selfByName(spans)
	if self["lap"] != 60 || count["lap"] != 2 {
		t.Errorf("lap: self %d over %d spans, want 60 over 2", self["lap"], count["lap"])
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "", -1)
	tr.endAs(id, "y")
	tr.end(id)
	live := newTracer()
	root := live.begin("lap", "0", -1)
	child := live.begin("realtime.warmup", "tag", root)
	live.endAs(child, "realtime.track")
	live.end(root)
	if len(live.spans) != 2 || live.spans[1].Name != "realtime.track" || live.spans[1].Parent != root {
		t.Fatalf("spans %+v", live.spans)
	}
	for _, s := range live.spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
}
