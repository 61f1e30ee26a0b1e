package op

import (
	"math"
	"testing"

	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/xrand"
)

// TestWindowAggIdleGroupExpiry pins the semantics the heap rewrite must
// preserve: a group that stops receiving elements is still expired and
// deleted by arrivals on other groups, because expiry is driven by the
// global event clock, not per-group activity.
func TestWindowAggIdleGroupExpiry(t *testing.T) {
	a := NewWindowAgg("a", AggSum, 100, func(e stream.Element) int64 { return e.Key })
	a.Subscribe(NewNull(1), 0)
	feed(a, 0, stream.Element{TS: 0, Key: 1, Val: 5})
	feed(a, 0, stream.Element{TS: 10, Key: 2, Val: 7})
	if got := a.GroupCount(); got != 2 {
		t.Fatalf("GroupCount = %d, want 2", got)
	}
	// Key 1 goes idle; an arrival on key 2 far past the window must expire
	// and delete it without any key-1 traffic.
	feed(a, 0, stream.Element{TS: 500, Key: 2, Val: 1})
	if got := a.GroupCount(); got != 1 {
		t.Fatalf("GroupCount = %d after idle-group deadline, want 1", got)
	}
	if got := a.WindowLen(); got != 1 {
		t.Fatalf("WindowLen = %d, want 1", got)
	}
}

// TestWindowAggMatchesBruteForce checks the heap-based expiry against a
// naive reference that recomputes every aggregate from the set of in-window
// elements on each arrival — independent of fifo, deque, and heap state.
func TestWindowAggMatchesBruteForce(t *testing.T) {
	const window = 300
	kinds := []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			a := NewWindowAgg("a", kind, window, func(e stream.Element) int64 { return e.Key % 8 })
			cap1 := &captureSink{}
			a.Subscribe(cap1, 0)

			rng := xrand.New(42)
			var ts int64
			var all []stream.Element
			for i := 0; i < 2000; i++ {
				ts += rng.Int64n(25)
				e := stream.Element{TS: ts, Key: rng.Int64n(64), Val: float64(rng.Int64n(1000)) - 500}
				all = append(all, e)
				feed(a, 0, e)

				key := e.Key % 8
				want := bruteAgg(kind, all, key, ts-window)
				got := cap1.got[len(cap1.got)-1]
				if got.Key != key || got.TS != ts {
					t.Fatalf("element %d: emitted (TS=%d,Key=%d), want (TS=%d,Key=%d)", i, got.TS, got.Key, ts, key)
				}
				if math.Abs(got.Val-want) > 1e-6 {
					t.Fatalf("element %d (%s): got %v, want %v", i, kind, got.Val, want)
				}
			}
			// Cross-check state size against the brute-force window too.
			live := 0
			for _, e := range all {
				if e.TS > ts-window {
					live++
				}
			}
			if got := a.WindowLen(); got != live {
				t.Fatalf("WindowLen = %d, want %d", got, live)
			}
		})
	}
}

// bruteAgg recomputes the aggregate for group key over all elements with
// TS > deadline, the reference semantics of a time window.
func bruteAgg(kind AggKind, all []stream.Element, key, deadline int64) float64 {
	var count int64
	var sum float64
	min, max := math.Inf(1), math.Inf(-1)
	for _, e := range all {
		if e.Key%8 != key || e.TS <= deadline {
			continue
		}
		count++
		sum += e.Val
		if e.Val < min {
			min = e.Val
		}
		if e.Val > max {
			max = e.Val
		}
	}
	switch kind {
	case AggCount:
		return float64(count)
	case AggSum:
		return sum
	case AggAvg:
		if count == 0 {
			return 0
		}
		return sum / float64(count)
	case AggMin:
		if count == 0 {
			return 0
		}
		return min
	case AggMax:
		if count == 0 {
			return 0
		}
		return max
	}
	panic("unknown kind")
}

// TestWindowAggHeapInvariant stresses churn across many groups and checks
// the heap structure stays internally consistent: parent ≤ child on front
// timestamps, hpos back-pointers exact, membership = non-empty groups.
func TestWindowAggHeapInvariant(t *testing.T) {
	a := NewWindowAgg("a", AggMax, 200, func(e stream.Element) int64 { return e.Key })
	a.Subscribe(NewNull(1), 0)
	rng := xrand.New(7)
	var ts int64
	for i := 0; i < 5000; i++ {
		ts += rng.Int64n(30)
		feed(a, 0, stream.Element{TS: ts, Key: rng.Int64n(200), Val: float64(i)})
		if i%250 == 0 {
			checkHeap(t, a)
		}
	}
	checkHeap(t, a)
}

func checkHeap(t *testing.T, a *WindowAgg) {
	t.Helper()
	if len(a.expq) != len(a.groups) {
		t.Fatalf("heap has %d entries, %d live groups", len(a.expq), len(a.groups))
	}
	for i, g := range a.expq {
		if g.hpos != i {
			t.Fatalf("expq[%d].hpos = %d", i, g.hpos)
		}
		if g.win.empty() {
			t.Fatalf("empty group %d in heap", g.key)
		}
		if a.groups[g.key] != g {
			t.Fatalf("heap entry %d not the live group for key %d", i, g.key)
		}
		if p := (i - 1) / 2; i > 0 && a.expq[p].win.front().TS > g.win.front().TS {
			t.Fatalf("heap order violated at %d: parent %d > child %d", i, a.expq[p].win.front().TS, g.win.front().TS)
		}
	}
}
