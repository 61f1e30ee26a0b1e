package op

import (
	"testing"

	"github.com/dsms/hmts/internal/stream"
)

func TestCountWindowSum(t *testing.T) {
	a := NewCountWindowAgg("a", AggSum, 3, nil)
	c := NewCollector(1)
	a.Subscribe(c, 0)
	for i := 1; i <= 6; i++ {
		feed(a, 0, stream.Element{TS: int64(i), Val: float64(i)})
	}
	a.Done(0)
	c.Wait()
	want := []float64{1, 3, 6, 9, 12, 15} // sums of last 3
	for i, e := range c.Elements() {
		if e.Val != want[i] {
			t.Fatalf("step %d: sum %v, want %v", i, e.Val, want[i])
		}
	}
}

func TestCountWindowMinPerGroup(t *testing.T) {
	a := NewCountWindowAgg("a", AggMin, 2, func(e stream.Element) int64 { return e.Key })
	c := NewCollector(1)
	a.Subscribe(c, 0)
	inputs := []struct {
		key int64
		val float64
	}{
		{1, 5}, {1, 3}, {1, 7}, // mins: 5, 3, 3 (window {3,7})
		{2, 9}, {2, 1}, // mins: 9, 1
	}
	for i, f := range inputs {
		feed(a, 0, stream.Element{TS: int64(i), Key: f.key, Val: f.val})
	}
	a.Done(0)
	c.Wait()
	want := []float64{5, 3, 3, 9, 1}
	for i, e := range c.Elements() {
		if e.Val != want[i] {
			t.Fatalf("step %d: min %v, want %v", i, e.Val, want[i])
		}
	}
	if a.WindowLen() != 4 { // 2 per group
		t.Fatalf("window len %d, want 4", a.WindowLen())
	}
}

func TestCountWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rows <= 0 should panic")
		}
	}()
	NewCountWindowAgg("a", AggSum, 0, nil)
}
