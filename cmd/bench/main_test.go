package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestParseBenchLine pins the pairwise tokenizer, in particular the case the
// old positional regexp got wrong: a custom b.ReportMetric unit between ns/op
// and the -benchmem pair must not drop B/op and allocs/op.
func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line string
		ok   bool
		want Benchmark
	}{
		{"BenchmarkHotNetworkStep-8 \t 1234 \t 56.7 ns/op", true,
			Benchmark{Name: "HotNetworkStep", NsPerOp: 56.7}},
		{"BenchmarkHotNetworkStep-8   1234   56.7 ns/op   8 B/op   2 allocs/op", true,
			Benchmark{Name: "HotNetworkStep", NsPerOp: 56.7, BytesPerOp: 8, AllocsPerOp: 2}},
		{"BenchmarkHotLargeMeshStep32x32K4-8  100  123456 ns/op  321.5 msgs/s/core  8 B/op  2 allocs/op", true,
			Benchmark{Name: "HotLargeMeshStep32x32K4", NsPerOp: 123456,
				BytesPerOp: 8, AllocsPerOp: 2, Metrics: map[string]float64{"msgs/s/core": 321.5}}},
		{"ok  \tmlnoc/internal/noc\t1.5s", false, Benchmark{}},
		{"pkg: mlnoc/internal/noc", false, Benchmark{}},
		{"BenchmarkBroken-8  notanumber  1 ns/op", false, Benchmark{}},
	}
	for _, tc := range cases {
		got, ok := parseBenchLine(tc.line)
		if ok != tc.ok {
			t.Errorf("parseBenchLine(%q) ok = %v, want %v", tc.line, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if got.Name != tc.want.Name || got.NsPerOp != tc.want.NsPerOp ||
			got.BytesPerOp != tc.want.BytesPerOp || got.AllocsPerOp != tc.want.AllocsPerOp {
			t.Errorf("parseBenchLine(%q) = %+v, want %+v", tc.line, got, tc.want)
		}
		for unit, v := range tc.want.Metrics {
			if got.Metrics[unit] != v {
				t.Errorf("parseBenchLine(%q) metric %q = %v, want %v", tc.line, unit, got.Metrics[unit], v)
			}
		}
	}
}

// TestCompareListsRemoved pins the -diff table for a snapshot entry the
// current run lacks: it gets a (removed) row when the -bench pattern selects
// it, no row otherwise, and never changes the exit status.
func TestCompareListsRemoved(t *testing.T) {
	pkg := "mlnoc/internal/noc"
	base := &Snapshot{Benchmarks: []Benchmark{
		{Pkg: pkg, Name: "HotNetworkStep", NsPerOp: 100},
		{Pkg: pkg, Name: "HotLargeMeshStepSparse32x32FullScan", NsPerOp: 900},
		{Pkg: pkg, Name: "JobHash", NsPerOp: 50},
	}}
	cur := &Snapshot{Benchmarks: []Benchmark{{Pkg: pkg, Name: "HotNetworkStep", NsPerOp: 101}}}
	selected, err := benchSelector("Hot")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if compare(&out, base, cur, 25, selected) {
		t.Fatalf("a removed benchmark counted as a regression:\n%s", out.String())
	}
	var removed []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasSuffix(line, "(removed)") {
			removed = append(removed, strings.Fields(line)[0])
		}
	}
	if len(removed) != 1 || removed[0] != "HotLargeMeshStepSparse32x32FullScan" {
		t.Fatalf("removed rows = %v, want [HotLargeMeshStepSparse32x32FullScan]:\n%s", removed, out.String())
	}
}
