package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{{50, 500}, {99, 990}, {100, 1000}, {0.01, 1}, {0, 1}}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Fatal("percentile reordered its input")
	}
	if got := beyond(xs, percentile(xs, 99)); got != 10 {
		t.Errorf("%d samples beyond p99 of 1000, want 10", got)
	}
	small := []float64{3, 1, 2}
	if got := percentile(small, 50); got != 2 {
		t.Errorf("percentile({3,1,2}, 50) = %v, want 2", got)
	}
	if got := percentile(small, 99); got != 3 {
		t.Errorf("percentile({3,1,2}, 99) = %v, want 3", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{4}, 4}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestDigestMismatches(t *testing.T) {
	cases := []struct {
		got, want string
		n         int
	}{
		{"a=1 b=2", "a=1 b=2", 0},
		{"a=1 b=3", "a=1 b=2", 1},
		{"a=1 b" + errorDigest, "a=1 b" + errorDigest, 1},
		{"x", "x y", 1},
		{"a b c", "", 3},
	}
	for _, c := range cases {
		if n := digestMismatches(c.got, c.want); n != c.n {
			t.Errorf("digestMismatches(%q, %q) = %d, want %d", c.got, c.want, n, c.n)
		}
	}
}

// TestBenchmarkJSONMatchesMetricLists keeps BENCHMARK.json at the
// repository root and aqbench's metric lists in step.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, aqbench %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), aqbench %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
	var digests map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		t.Fatalf("digests.json: %v", err)
	}
	for _, w := range b.Workloads {
		if len(digests[w.Name]) == 0 {
			t.Errorf("digests.json stores no digest for workload %q", w.Name)
		}
	}
}
