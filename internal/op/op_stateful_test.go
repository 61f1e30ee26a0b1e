package op

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/xrand"
)

// interleave merges two timestamp-sorted streams into one arrival order
// with per-port tags.
type arrival struct {
	port int
	e    stream.Element
}

func mkStreams(rng *xrand.Rand, n int, keys int64, step int64) ([]stream.Element, []stream.Element) {
	l := make([]stream.Element, n)
	r := make([]stream.Element, n)
	for i := 0; i < n; i++ {
		l[i] = stream.Element{TS: int64(i) * step, Key: rng.Int64n(keys), Val: float64(rng.Intn(10))}
		r[i] = stream.Element{TS: int64(i)*step + step/2, Key: rng.Int64n(keys), Val: float64(rng.Intn(10))}
	}
	return l, r
}

// tsOrder interleaves by timestamp (the in-order arrival case).
func tsOrder(l, r []stream.Element) []arrival {
	var out []arrival
	i, j := 0, 0
	for i < len(l) || j < len(r) {
		if j >= len(r) || (i < len(l) && l[i].TS <= r[j].TS) {
			out = append(out, arrival{0, l[i]})
			i++
		} else {
			out = append(out, arrival{1, r[j]})
			j++
		}
	}
	return out
}

// refJoin is the brute-force reference: all pairs with equal keys whose
// event times lie strictly within the window.
func refJoin(l, r []stream.Element, window int64) []stream.Element {
	var out []stream.Element
	for _, a := range l {
		for _, b := range r {
			d := a.TS - b.TS
			if d < 0 {
				d = -d
			}
			if a.Key == b.Key && d < window {
				out = append(out, defaultMerge(a, b))
			}
		}
	}
	return out
}

func canon(els []stream.Element) []string {
	out := make([]string, len(els))
	for i, e := range els {
		out[i] = fmt.Sprintf("%d/%d/%g", e.TS, e.Key, e.Val)
	}
	sort.Strings(out)
	return out
}

func runJoin(j Operator, arrivals []arrival) []stream.Element {
	c := NewCollector(1)
	j.Subscribe(c, 0)
	for _, a := range arrivals {
		feed(j, a.port, a.e)
	}
	j.Done(0)
	j.Done(1)
	c.Wait()
	return c.Elements()
}

func TestSHJMatchesReference(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(100)
		window := int64(50 + rng.Intn(500))
		l, r := mkStreams(rng, n, 8, 10)
		got := canon(runJoin(NewSHJ("j", window, nil), tsOrder(l, r)))
		want := canon(refJoin(l, r, window))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, reference %d (window %d)", trial, len(got), len(want), window)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result %d = %s, want %s", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSNJEquiMatchesSHJ(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(80)
		window := int64(100 + rng.Intn(300))
		l, r := mkStreams(rng, n, 5, 7)
		arr := tsOrder(l, r)
		shj := canon(runJoin(NewSHJ("h", window, nil), arr))
		snj := canon(runJoin(NewSNJ("n", window, nil, nil), arr))
		if len(shj) != len(snj) {
			t.Fatalf("trial %d: SHJ %d vs SNJ %d results", trial, len(shj), len(snj))
		}
		for i := range shj {
			if shj[i] != snj[i] {
				t.Fatalf("trial %d: mismatch %s vs %s", trial, shj[i], snj[i])
			}
		}
	}
}

func TestSNJThetaJoin(t *testing.T) {
	// Band join: |l.Val - r.Val| <= 1, ignoring keys.
	pred := func(l, r stream.Element) bool { return math.Abs(l.Val-r.Val) <= 1 }
	j := NewSNJ("band", 1000, pred, nil)
	c := NewCollector(1)
	j.Subscribe(c, 0)
	feed(j, 0, stream.Element{TS: 1, Key: 1, Val: 5})
	feed(j, 1, stream.Element{TS: 2, Key: 2, Val: 6}) // match
	feed(j, 1, stream.Element{TS: 3, Key: 3, Val: 9}) // no match
	feed(j, 0, stream.Element{TS: 4, Key: 4, Val: 8}) // matches the 9
	j.Done(0)
	j.Done(1)
	c.Wait()
	if c.Len() != 2 {
		t.Fatalf("theta join got %d, want 2: %v", c.Len(), c.Elements())
	}
}

func TestJoinWindowExpiry(t *testing.T) {
	j := NewSHJ("j", 100, nil)
	c := NewCollector(1)
	j.Subscribe(c, 0)
	feed(j, 0, stream.Element{TS: 0, Key: 1})
	feed(j, 1, stream.Element{TS: 50, Key: 1})  // within window -> match
	feed(j, 1, stream.Element{TS: 200, Key: 1}) // expires both TS=0 and TS=50
	if got := j.WindowLen(); got != 1 {
		t.Fatalf("window holds %d after expiry, want 1", got)
	}
	feed(j, 0, stream.Element{TS: 210, Key: 1}) // matches only TS=200
	j.Done(0)
	j.Done(1)
	c.Wait()
	if c.Len() != 2 {
		t.Fatalf("got %d results, want 2: %v", c.Len(), c.Elements())
	}
}

func TestJoinSkewNeverProducesOutOfWindowPairs(t *testing.T) {
	// Arrival order maximally skewed: all of L, then all of R. The join
	// must still never pair elements farther than the window apart.
	rng := xrand.New(3)
	n, window := 200, int64(40)
	l, r := mkStreams(rng, n, 4, 10)
	var arr []arrival
	for _, e := range l {
		arr = append(arr, arrival{0, e})
	}
	for _, e := range r {
		arr = append(arr, arrival{1, e})
	}
	for _, mk := range []func() Operator{
		func() Operator { return NewSHJ("h", window, nil) },
		func() Operator { return NewSNJ("n", window, nil, nil) },
	} {
		got := runJoin(mk(), arr)
		ref := make(map[string]bool)
		for _, s := range canon(refJoin(l, r, window)) {
			ref[s] = true
		}
		for _, s := range canon(got) {
			if !ref[s] {
				t.Fatalf("produced pair outside the reference set: %s", s)
			}
		}
	}
}

func TestMJoinTwoWayEqualsSHJ(t *testing.T) {
	rng := xrand.New(4)
	n, window := 80, int64(300)
	l, r := mkStreams(rng, n, 6, 9)
	arr := tsOrder(l, r)
	shj := canon(runJoin(NewSHJ("h", window, nil), arr))
	mj := canon(runJoin(NewMJoin("m", 2, window, nil), arr))
	if len(shj) != len(mj) {
		t.Fatalf("MJoin(2) %d vs SHJ %d", len(mj), len(shj))
	}
	for i := range shj {
		if shj[i] != mj[i] {
			t.Fatalf("mismatch %s vs %s", shj[i], mj[i])
		}
	}
}

func TestMJoinThreeWay(t *testing.T) {
	j := NewMJoin("m3", 3, 1000, nil)
	c := NewCollector(1)
	j.Subscribe(c, 0)
	// Two complete combinations on key 1 (two choices on side 1).
	feed(j, 0, stream.Element{TS: 1, Key: 1, Val: 1})
	feed(j, 1, stream.Element{TS: 2, Key: 1, Val: 2})
	feed(j, 1, stream.Element{TS: 3, Key: 1, Val: 4})
	feed(j, 2, stream.Element{TS: 4, Key: 1, Val: 8}) // completes both
	// Incomplete on key 2.
	feed(j, 0, stream.Element{TS: 5, Key: 2, Val: 1})
	feed(j, 2, stream.Element{TS: 6, Key: 2, Val: 1})
	for port := 0; port < 3; port++ {
		j.Done(port)
	}
	c.Wait()
	if c.Len() != 2 {
		t.Fatalf("3-way join got %d, want 2: %v", c.Len(), c.Elements())
	}
	for _, e := range c.Elements() {
		if e.Key != 1 || (e.Val != 11 && e.Val != 13) {
			t.Fatalf("bad combination %v", e)
		}
	}
	if j.WindowLen() != 6 {
		t.Fatalf("window len %d", j.WindowLen())
	}
}

// refWindowAgg recomputes the aggregate over the brute-force window.
func refWindowAgg(kind AggKind, window []float64) float64 {
	if len(window) == 0 {
		return 0
	}
	switch kind {
	case AggCount:
		return float64(len(window))
	case AggSum, AggAvg:
		s := 0.0
		for _, v := range window {
			s += v
		}
		if kind == AggAvg {
			return s / float64(len(window))
		}
		return s
	case AggMin:
		m := window[0]
		for _, v := range window {
			if v < m {
				m = v
			}
		}
		return m
	case AggMax:
		m := window[0]
		for _, v := range window {
			if v > m {
				m = v
			}
		}
		return m
	}
	panic("bad kind")
}

func TestWindowAggAgainstReference(t *testing.T) {
	for _, kind := range []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rng := xrand.New(uint64(kind) + 10)
			const n, window = 500, int64(90)
			a := NewWindowAgg("a", kind, window, nil)
			c := NewCollector(1)
			a.Subscribe(c, 0)
			var els []stream.Element
			ts := int64(0)
			for i := 0; i < n; i++ {
				ts += rng.Int64n(25)
				els = append(els, stream.Element{TS: ts, Val: float64(rng.Intn(100))})
			}
			for _, e := range els {
				feed(a, 0, e)
			}
			a.Done(0)
			c.Wait()
			got := c.Elements()
			if len(got) != n {
				t.Fatalf("emitted %d, want %d", len(got), n)
			}
			for i, o := range got {
				var win []float64
				for j := 0; j <= i; j++ {
					if els[j].TS > els[i].TS-window {
						win = append(win, els[j].Val)
					}
				}
				want := refWindowAgg(kind, win)
				if math.Abs(o.Val-want) > 1e-9 {
					t.Fatalf("%s at %d: got %v, want %v (window %v)", kind, i, o.Val, want, win)
				}
			}
		})
	}
}

func TestWindowAggGroups(t *testing.T) {
	a := NewWindowAgg("a", AggSum, 1000, func(e stream.Element) int64 { return e.Key })
	c := NewCollector(1)
	a.Subscribe(c, 0)
	for i := 0; i < 20; i++ {
		feed(a, 0, stream.Element{TS: int64(i), Key: int64(i % 2), Val: 1})
	}
	if a.GroupCount() != 2 {
		t.Fatalf("groups %d", a.GroupCount())
	}
	if a.WindowLen() != 20 {
		t.Fatalf("window len %d", a.WindowLen())
	}
	a.Done(0)
	c.Wait()
	last := c.Elements()[19]
	if last.Val != 10 {
		t.Fatalf("final group sum %v, want 10", last.Val)
	}
}

func TestWindowAggGroupEviction(t *testing.T) {
	a := NewWindowAgg("a", AggCount, 10, func(e stream.Element) int64 { return e.Key })
	c := NewCollector(1)
	a.Subscribe(c, 0)
	feed(a, 0, stream.Element{TS: 0, Key: 1, Val: 1})
	feed(a, 0, stream.Element{TS: 1, Key: 2, Val: 1})
	feed(a, 0, stream.Element{TS: 100, Key: 3, Val: 1}) // evicts groups 1 and 2
	if a.GroupCount() != 1 {
		t.Fatalf("stale groups retained: %d", a.GroupCount())
	}
	a.Done(0)
	c.Wait()
}

// Property: min/max deque agrees with brute force under random inputs and
// random in-order timestamps.
func TestWindowAggMinMaxProperty(t *testing.T) {
	check := func(kind AggKind) func(vals []uint8) bool {
		return func(vals []uint8) bool {
			a := NewWindowAgg("a", kind, 50, nil)
			c := NewCollector(1)
			a.Subscribe(c, 0)
			els := make([]stream.Element, len(vals))
			for i, v := range vals {
				els[i] = stream.Element{TS: int64(i) * 7, Val: float64(v % 32)}
				feed(a, 0, els[i])
			}
			a.Done(0)
			c.Wait()
			for i, o := range c.Elements() {
				var win []float64
				for j := 0; j <= i; j++ {
					if els[j].TS > els[i].TS-50 {
						win = append(win, els[j].Val)
					}
				}
				if o.Val != refWindowAgg(kind, win) {
					return false
				}
			}
			return true
		}
	}
	if err := quick.Check(check(AggMin), &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(check(AggMax), &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctSuppressesWithinWindow(t *testing.T) {
	d := NewDistinct("d", 100)
	c := NewCollector(1)
	d.Subscribe(c, 0)
	feed(d, 0, stream.Element{TS: 0, Key: 1})
	feed(d, 0, stream.Element{TS: 10, Key: 1})  // dup
	feed(d, 0, stream.Element{TS: 50, Key: 2})  // new
	feed(d, 0, stream.Element{TS: 90, Key: 1})  // still suppressed (refreshed at 10)
	feed(d, 0, stream.Element{TS: 300, Key: 1}) // window passed -> emit
	d.Done(0)
	c.Wait()
	if c.Len() != 3 {
		t.Fatalf("got %d, want 3: %v", c.Len(), c.Elements())
	}
	if d.StateLen() == 0 {
		t.Fatal("state empty")
	}
}

func TestDistinctStateBounded(t *testing.T) {
	d := NewDistinct("d", 10)
	c := NewCollector(1)
	d.Subscribe(c, 0)
	for i := 0; i < 10_000; i++ {
		feed(d, 0, stream.Element{TS: int64(i) * 100, Key: int64(i)})
	}
	if d.StateLen() > 2 {
		t.Fatalf("distinct state grew to %d despite expiry", d.StateLen())
	}
	d.Done(0)
	c.Wait()
	if c.Len() != 10_000 {
		t.Fatalf("all unique keys should pass: %d", c.Len())
	}
}
