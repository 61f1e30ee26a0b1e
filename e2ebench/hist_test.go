package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistQuantilesMatchSorted(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 100, 10_000, 200_000} {
		var h hist
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(math.Exp(r.NormFloat64()*2 + 13)) // ~0.5 ms median, long tail
			h.record(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			want := xs[int(math.Ceil(q*float64(n)))-1]
			got := h.quantile(q)
			if math.Abs(float64(got-want)) > float64(want)/(1<<subBits)+1 {
				t.Errorf("n=%d q=%v: got %d, sorted reference %d", n, q, got, want)
			}
		}
	}
}

func TestHistSmallValuesExact(t *testing.T) {
	var h hist
	for v := int64(0); v < 1<<subBits; v++ {
		h.record(v)
	}
	if got := h.quantile(0.5); got != 63 {
		t.Fatalf("median of 0..127 = %d, want 63", got)
	}
	var empty hist
	if empty.quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}
