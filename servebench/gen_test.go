package main

import (
	"bytes"
	"testing"

	"rfidraw/internal/rfid"
)

func testInput(t *testing.T, name string, seed int64) *input {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.pool = 3
	in, err := newInput(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSameSeedSameStream(t *testing.T) {
	a, err := testInput(t, "pen-down", 7).encode(6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testInput(t, "pen-down", 7).encode(6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two different report streams")
	}
	c, err := testInput(t, "pen-down", 8).encode(6)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same report stream")
	}
}

func TestLapsHaveFreshEPCsAndFollowEachOther(t *testing.T) {
	in := testInput(t, "long-write", 3)
	seen := map[rfid.EPC]int{}
	var end int64 = -1
	for i := range 4 * len(in.tmpl) {
		l := in.lap(i, 0)
		if len(l.epcs) != in.w.tagsPerLap {
			t.Fatalf("lap %d has %d tags, want %d", i, len(l.epcs), in.w.tagsPerLap)
		}
		if l.offset%in.sweep != 0 {
			t.Fatalf("lap %d starts at %v, off the %v sweep grid", i, l.offset, in.sweep)
		}
		for _, e := range l.epcs {
			if prev, dup := seen[e]; dup {
				t.Fatalf("EPC %s of lap %d already used by lap %d", e, i, prev)
			}
			seen[e] = i
		}
		for _, rep := range l.reports {
			if int64(rep.Time) <= end {
				t.Fatalf("lap %d overlaps the previous lap in stream time", i)
			}
			if _, ok := seen[rep.EPC]; !ok || seen[rep.EPC] != i {
				t.Fatalf("lap %d carries a report of a tag it does not own", i)
			}
		}
		end = int64(l.reports[len(l.reports)-1].Time)
	}
}

func TestLapsForSizesWorkByRate(t *testing.T) {
	in := testInput(t, "pen-down", 1)
	one, ten := in.lapsFor(1e9), in.lapsFor(10e9)
	if one < 1 || ten < 9*one || ten > 11*one {
		t.Fatalf("lapsFor(1s)=%d, lapsFor(10s)=%d: want proportional work", one, ten)
	}
}
