package op

import (
	"testing"
	"time"

	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/xrand"
)

// TestTopKZeroAlloc locks the TopK hot path to zero allocations: the
// candidate buffer, the swapped in-top sets and the emit scratch are all
// reused, so once warmed up, folding an element in (including expiry and
// top-set churn) must not allocate.
func TestTopKZeroAlloc(t *testing.T) {
	k := NewTopK("t", 8, int64(time.Millisecond))
	k.Subscribe(&Null{}, 0)
	rng := xrand.New(1)
	var ts int64
	one := make([]stream.Element, 1)
	run := func(n int) {
		for i := 0; i < n; i++ {
			ts += 1000
			one[0] = stream.Element{TS: ts, Key: rng.Int64n(64)}
			k.ProcessBatch(0, one)
		}
	}
	run(4096) // warm up: window filled, maps and buffers at steady size
	if avg := testing.AllocsPerRun(1000, func() { run(1) }); avg != 0 {
		t.Fatalf("TopK allocates %.2f per one-element batch in steady state, want 0", avg)
	}
}

// TestWindowAggExpiryZeroAlloc locks the grouped window-aggregate expiry
// path to zero steady-state allocations across many groups — the per-group
// fifos compact in place instead of growing (the former stray B/op came
// from append growth at tiny capacities).
func TestWindowAggExpiryZeroAlloc(t *testing.T) {
	const groups = 10_000
	const dt = 100
	a := NewWindowAgg("a", AggSum, int64(2*groups*dt), func(e stream.Element) int64 { return e.Key })
	a.Subscribe(NewNull(1), 0)
	var ts int64
	var i int
	one := make([]stream.Element, 1)
	run := func(n int) {
		for j := 0; j < n; j++ {
			ts += dt
			one[0] = stream.Element{TS: ts, Key: int64(i % groups), Val: 1}
			a.ProcessBatch(0, one)
			i++
		}
	}
	run(4 * groups) // reach steady state: every group's fifo warmed
	if avg := testing.AllocsPerRun(1000, func() { run(1) }); avg != 0 {
		t.Fatalf("WindowAgg allocates %.2f per one-element batch in steady state, want 0", avg)
	}
}
