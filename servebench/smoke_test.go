package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// contractNames reads the metric names BENCHMARK.json declares.
func contractNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range c.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func names(r *report) []string {
	var out []string
	for n := range r.metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload briefly, end to end and traced: every
// check passes and each mode prints exactly the metrics BENCHMARK.json
// declares for it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon per workload")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(workDir) })
	endToEnd, perLayer := contractNames(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.pool, w.tracedLaps = 4, 2
			for _, mode := range []struct {
				run  func(context.Context, workload, int64, time.Duration) (*report, error)
				want []string
			}{{runE2E, endToEnd}, {runTraced, perLayer}} {
				r, err := mode.run(context.Background(), w, 1, 3*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range r.failures {
					t.Error(f)
				}
				if got := names(r); !equal(got, mode.want) {
					t.Errorf("metrics %v, want %v", got, mode.want)
				}
				if r.attempted == 0 || r.failed != 0 {
					t.Errorf("%d failed of %d attempted", r.failed, r.attempted)
				}
			}
		})
	}
}
