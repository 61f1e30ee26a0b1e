package op

import (
	"fmt"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/stream"
)

// mkAggChain builds the fused filter→map→windowagg DI chain of the paper's
// motivating example (§5.1.1): cheap unary operators in front of an
// expensive stateful one, all in one partition.
func mkAggChain() *Filter {
	f := NewFilter("f", func(e stream.Element) bool { return e.Key%4 != 0 })
	m := NewMap("m", func(e stream.Element) stream.Element { e.Val++; return e })
	a := NewWindowAgg("a", AggSum, int64(time.Millisecond), func(e stream.Element) int64 { return e.Key & 15 })
	f.Subscribe(m, 0)
	m.Subscribe(a, 0)
	a.Subscribe(NewNull(1), 0)
	return f
}

// mkJoinChain builds a filter feeding port 0 of a symmetric hash join.
// The returned head drives port 0; the join is returned for direct port-1
// delivery.
func mkJoinChain() (*Filter, *SHJ) {
	f := NewFilter("f", func(e stream.Element) bool { return e.Key%4 != 0 })
	j := NewSHJ("j", int64(time.Millisecond), nil)
	f.Subscribe(j, 0)
	j.Subscribe(NewNull(1), 0)
	return f, j
}

// BenchmarkChainScalarVsBatch measures the per-element cost of identical
// workloads delivered as one-element batches (one element per call, the
// "scalar" rows) versus in 64-element batches — the headline number for
// vectorized DI execution. ns/op is ns/element in both modes.
func BenchmarkChainScalarVsBatch(b *testing.B) {
	const batchN = 64

	b.Run("filter-map-windowagg/scalar", func(b *testing.B) {
		head := mkAggChain()
		one := make([]stream.Element, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			one[0] = stream.Element{TS: int64(i) * 1000, Key: int64(i & 63), Val: 1}
			head.ProcessBatch(0, one)
		}
	})
	b.Run("filter-map-windowagg/batch64", func(b *testing.B) {
		head := mkAggChain()
		buf := make([]stream.Element, 0, batchN)
		b.ReportAllocs()
		for i := 0; i < b.N; {
			buf = buf[:0]
			for len(buf) < batchN && i < b.N {
				buf = append(buf, stream.Element{TS: int64(i) * 1000, Key: int64(i & 63), Val: 1})
				i++
			}
			head.ProcessBatch(0, buf)
		}
	})

	// The join workload sends element i to port (i/batchN)&1, so the scalar
	// and batch runs see byte-identical input streams (batches cannot span
	// ports).
	b.Run("filter-shj/scalar", func(b *testing.B) {
		head, j := mkJoinChain()
		one := make([]stream.Element, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			one[0] = stream.Element{TS: int64(i) * 1000, Key: int64(i & 255), Val: 1}
			if (i/batchN)&1 == 0 {
				head.ProcessBatch(0, one)
			} else {
				j.ProcessBatch(1, one)
			}
		}
	})
	b.Run("filter-shj/batch64", func(b *testing.B) {
		head, j := mkJoinChain()
		buf := make([]stream.Element, 0, batchN)
		b.ReportAllocs()
		for i := 0; i < b.N; {
			port := (i / batchN) & 1
			buf = buf[:0]
			for len(buf) < batchN && i < b.N && (i/batchN)&1 == port {
				buf = append(buf, stream.Element{TS: int64(i) * 1000, Key: int64(i & 255), Val: 1})
				i++
			}
			if port == 0 {
				head.ProcessBatch(0, buf)
			} else {
				j.ProcessBatch(1, buf)
			}
		}
	})
}

// BenchmarkWindowAggExpiry compares arrival cost across group counts. With
// heap-driven expiry the cost is O(1) when nothing is due plus O(log G)
// per expired element, so ns/op must stay nearly flat from 100 to 10k
// groups; the old full-scan expiry was O(G) per element and collapses in
// the 10k case.
func BenchmarkWindowAggExpiry(b *testing.B) {
	for _, groups := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			const dt = 100
			// Window sized to hold ~2 elements per group in steady state, so
			// most arrivals expire ~1 element — worst case for heap churn.
			a := NewWindowAgg("a", AggSum, int64(2*groups*dt), func(e stream.Element) int64 { return e.Key })
			a.Subscribe(NewNull(1), 0)
			var ts int64
			one := make([]stream.Element, 1)
			for i := 0; i < 2*groups; i++ { // reach steady state before timing
				ts += dt
				one[0] = stream.Element{TS: ts, Key: int64(i % groups), Val: 1}
				a.ProcessBatch(0, one)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts += dt
				one[0] = stream.Element{TS: ts, Key: int64(i % groups), Val: 1}
				a.ProcessBatch(0, one)
			}
		})
	}
}

// TestStatelessBatchPathZeroAlloc is the allocation guard on the stateless
// batch path: once scratch buffers are warm, pushing a batch through a
// fused filter→map→sample→union→throttle chain must not allocate at all.
func TestStatelessBatchPathZeroAlloc(t *testing.T) {
	f := NewFilter("f", func(e stream.Element) bool { return e.Key%8 != 0 })
	m := NewMap("m", func(e stream.Element) stream.Element { e.Val++; return e })
	s := NewSample("s", 0.9, 3)
	u := NewUnion("u", 1)
	th := NewThrottle("t", 1e9, 64)
	f.Subscribe(m, 0)
	m.Subscribe(s, 0)
	s.Subscribe(u, 0)
	u.Subscribe(th, 0)
	th.Subscribe(NewNull(1), 0)

	batch := make([]stream.Element, 64)
	var ts int64
	run := func() {
		for i := range batch {
			ts += 500
			batch[i] = stream.Element{TS: ts, Key: int64(i), Val: 1}
		}
		f.ProcessBatch(0, batch)
	}
	for i := 0; i < 8; i++ { // warm scratch buffers and estimators
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("stateless batch path allocates %.1f times per batch, want 0", allocs)
	}
}
