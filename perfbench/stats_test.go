package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{0.2, 0.4, 0.1, 0.9, 0.3}, 0.3},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

// TestQuartiles pins the cut points to Python's statistics.quantiles(xs,
// n=4) (the "exclusive" method), including its extrapolation for two values.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 2.75, 7.625},
		{[]float64{5, 7}, 4.5, 6, 7.5},
		{[]float64{0.2, 0.4, 0.1, 0.9, 0.3}, 0.15, 0.3, 0.65},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int64
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{1 << 40, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := percentile(xs, 50); !near(got, 5.5) {
		t.Errorf("p50 = %v, want 5.5", got)
	}
	if got := percentile(xs, 75); !near(got, 8.25) {
		t.Errorf("p75 = %v, want 8.25 (the third quartile)", got)
	}
	if got := percentile(xs, 99.9); got != 10 {
		t.Errorf("p99.9 = %v, want the maximum", got)
	}
}

func TestDurHistQuantile(t *testing.T) {
	var h durHist
	if h.quantile(0.5) != 0 {
		t.Error("empty histogram should report 0")
	}
	// 1..10000 ns, one each: bucket resolution is 1/32 of the value.
	for v := int64(1); v <= 10000; v++ {
		h.add(v)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 5000}, {0.99, 9900}, {0.1, 1000}} {
		got := h.quantile(c.q)
		if math.Abs(got-c.want)/c.want > 1.0/32 {
			t.Errorf("quantile(%v) = %v, want %v within one bucket", c.q, got, c.want)
		}
	}
	if h.n != 10000 || h.sum != 10000*10001/2 {
		t.Errorf("count %d sum %d", h.n, h.sum)
	}
	// Values below histSub are exact.
	var small durHist
	for i := 0; i < 10; i++ {
		small.add(7)
	}
	if got := small.quantile(0.5); got < 7 || got > 8 {
		t.Errorf("quantile of constant 7 = %v", got)
	}
	// Bucket bounds tile the axis.
	for i := 1; i < histBuckets; i++ {
		lo, w := histBounds(i - 1)
		next, _ := histBounds(i)
		if lo+w != next {
			t.Fatalf("bucket %d ends at %v, bucket %d starts at %v", i-1, lo+w, i, next)
		}
		if histIndex(int64(next)) != i {
			t.Fatalf("histIndex(%v) = %d, want %d", next, histIndex(int64(next)), i)
		}
	}
}

func TestStatmResident(t *testing.T) {
	cases := map[string]int64{
		"2868 1024 512 1 0 1900 0\n": 1024,
		"10 7 3 1 0 5 0":             7,
		"5":                          0,
	}
	for in, want := range cases {
		if got := statmResident([]byte(in)); got != want {
			t.Errorf("statmResident(%q) = %d, want %d", in, got, want)
		}
	}
}
