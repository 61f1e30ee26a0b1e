package sched

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/dsms/hmts/internal/queue"
	"github.com/dsms/hmts/internal/stream"
)

// devnull is the minimal downstream for test queues.
type devnull struct{}

func (devnull) ProcessBatch(int, []stream.Element) {}
func (devnull) Done(int)                           {}

// enqueue hands q one element as a one-element batch. It is the single way
// tests in this package enqueue an individual element.
func enqueue(q *queue.Queue, e stream.Element) { q.ProcessBatch(0, []stream.Element{e}) }

// unitWith returns a unit whose queue holds elements with the given
// timestamps.
func unitWith(name string, tss ...int64) *Unit {
	q := queue.New(name, 0)
	q.Subscribe(devnull{}, 0)
	for _, ts := range tss {
		enqueue(q, stream.Element{TS: ts})
	}
	return &Unit{Q: q}
}

// initStrat builds the index over units and returns the strategy.
func initStrat(s Strategy, units []*Unit) Strategy {
	s.Init(units)
	return s
}

func TestFIFOPicksOldest(t *testing.T) {
	units := []*Unit{unitWith("a", 30), unitWith("b", 10), unitWith("c", 20)}
	s := initStrat(&FIFO{}, units)
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want 1", got)
	}
}

func TestFIFOSkipsEmptyAndClosed(t *testing.T) {
	empty := unitWith("e")
	closed := unitWith("c", 5)
	closed.closed = true
	units := []*Unit{empty, closed, unitWith("x", 50)}
	s := initStrat(&FIFO{}, units)
	if got := s.Pick(); got != 2 {
		t.Fatalf("picked %d, want 2", got)
	}
	s = initStrat(&FIFO{}, []*Unit{empty, closed})
	if got := s.Pick(); got != -1 {
		t.Fatalf("picked %d from unready units, want -1", got)
	}
	if s.Ready() {
		t.Fatal("Ready() true with no ready units")
	}
}

func TestFIFOPrefersPendingDone(t *testing.T) {
	pending := unitWith("p")
	pending.Q.Done(0) // empty but must propagate Done
	units := []*Unit{unitWith("x", 1), pending}
	s := initStrat(&FIFO{}, units)
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want the pending-Done unit", got)
	}
}

func TestFIFOTracksUpdates(t *testing.T) {
	a, b := unitWith("a", 10), unitWith("b", 20)
	units := []*Unit{a, b}
	s := initStrat(&FIFO{}, units)
	if got := s.Pick(); got != 0 {
		t.Fatalf("picked %d, want 0", got)
	}
	// Drain a's front; its next element is younger than b's front.
	enqueue(a.Q, stream.Element{TS: 30})
	var scratch [1]stream.Element
	a.Q.DrainBatch(scratch[:], 1)
	s.Update(0)
	if got := s.Pick(); got != 1 {
		t.Fatalf("after drain picked %d, want 1", got)
	}
	// b drains empty: only a remains.
	b.Q.DrainBatch(scratch[:], 1)
	s.Update(1)
	if got := s.Pick(); got != 0 {
		t.Fatalf("after emptying b picked %d, want 0", got)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	units := []*Unit{unitWith("a", 1, 1), unitWith("b", 1, 1), unitWith("c", 1, 1)}
	r := initStrat(&RoundRobin{}, units)
	// The rotor starts after index 0, so the cycle begins at 1.
	got := []int{r.Pick(), r.Pick(), r.Pick(), r.Pick()}
	want := []int{1, 2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin order %v, want %v", got, want)
		}
	}
}

// TestRoundRobinFairnessSkewed checks the ready ring over a skewed ready
// set: units with deep backlogs must not crowd out shallow ones — every
// ready unit gets exactly one pick per rotation regardless of its length.
func TestRoundRobinFairnessSkewed(t *testing.T) {
	units := []*Unit{
		unitWith("deep", 1, 2, 3, 4, 5, 6, 7, 8),
		unitWith("idle"),
		unitWith("shallow", 1),
		unitWith("mid", 1, 2, 3),
		unitWith("idle2"),
	}
	r := initStrat(&RoundRobin{}, units)
	picks := make(map[int]int)
	for i := 0; i < 30; i++ {
		p := r.Pick()
		if p < 0 {
			t.Fatal("no pick with ready units")
		}
		picks[p]++
	}
	// 3 ready units, 30 picks: exactly 10 each.
	for _, i := range []int{0, 2, 3} {
		if picks[i] != 10 {
			t.Fatalf("unit %d picked %d times, want 10 (picks: %v)", i, picks[i], picks)
		}
	}
	if picks[1] != 0 || picks[4] != 0 {
		t.Fatalf("idle units picked: %v", picks)
	}
	// A unit leaving the ready set mid-rotation stops being picked.
	var scratch [1]stream.Element
	units[2].Q.DrainBatch(scratch[:], 1)
	r.Update(2)
	for i := 0; i < 10; i++ {
		if p := r.Pick(); p == 2 {
			t.Fatal("drained-empty unit still picked")
		}
	}
}

func TestChainPicksSteepest(t *testing.T) {
	a := unitWith("a", 10)
	a.Steepness = 0.5
	b := unitWith("b", 5)
	b.Steepness = 2.0
	c := unitWith("c", 1)
	c.Steepness = 1.0
	s := initStrat(&Chain{}, []*Unit{a, b, c})
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want steepest", got)
	}
}

// TestChainOrderingTable pins the full tie-break chain the bucketed index
// must preserve: steepness desc, then SegPos asc, then front TS asc.
func TestChainOrderingTable(t *testing.T) {
	mk := func(steep float64, pos int, ts int64) *Unit {
		u := unitWith("u", ts)
		u.Steepness, u.SegPos = steep, pos
		return u
	}
	cases := []struct {
		name  string
		units []*Unit
		want  int
	}{
		{"steepness dominates", []*Unit{mk(1, 0, 1), mk(3, 9, 99), mk(2, 0, 1)}, 1},
		{"segpos breaks steepness tie", []*Unit{mk(2, 2, 1), mk(2, 0, 99), mk(2, 1, 1)}, 1},
		{"ts breaks full tie", []*Unit{mk(2, 1, 50), mk(2, 1, 10), mk(2, 1, 30)}, 1},
		{"unready steepest skipped", []*Unit{mk(9, 0, 1), mk(1, 0, 5)}, 1},
	}
	cases[3].units[0].closed = true
	for _, tc := range cases {
		s := initStrat(&Chain{}, tc.units)
		if got := s.Pick(); got != tc.want {
			t.Fatalf("%s: picked %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestChainTieBreaksByPosition(t *testing.T) {
	a := unitWith("a", 10)
	a.Steepness, a.SegPos = 1.0, 2
	b := unitWith("b", 20)
	b.Steepness, b.SegPos = 1.0, 0
	s := initStrat(&Chain{}, []*Unit{a, b})
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want earlier position", got)
	}
	// Same position: older element first.
	c := unitWith("c", 5)
	c.Steepness, c.SegPos = 1.0, 0
	s = initStrat(&Chain{}, []*Unit{b, c})
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want older front element", got)
	}
}

func TestChainPrefersPendingDone(t *testing.T) {
	steep := unitWith("s", 1)
	steep.Steepness = 9
	pending := unitWith("p")
	pending.Steepness = 0.1
	pending.Q.Done(0)
	s := initStrat(&Chain{}, []*Unit{steep, pending})
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want the pending-Done unit regardless of steepness", got)
	}
}

func TestMaxQueuePicksLongest(t *testing.T) {
	units := []*Unit{unitWith("a", 1, 2), unitWith("b", 1, 2, 3, 4), unitWith("c", 1)}
	s := initStrat(&MaxQueue{}, units)
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want longest", got)
	}
}

// TestMaxQueueTracksGrowth grows a short queue past the current maximum
// and checks the index reorders once the queue's notify callback delivers
// the update — the lazy refresh path the dirty-unit protocol drives.
func TestMaxQueueTracksGrowth(t *testing.T) {
	a, b := unitWith("a", 1, 2, 3), unitWith("b", 1)
	s := initStrat(&MaxQueue{}, []*Unit{a, b})
	if got := s.Pick(); got != 0 {
		t.Fatalf("picked %d, want 0", got)
	}
	// Wire b's notify the way the executor does: every enqueue marks the
	// unit dirty and is folded in before the next pick.
	b.Q.SetNotify(func() { s.Update(1) })
	for i := 0; i < 5; i++ {
		enqueue(b.Q, stream.Element{TS: int64(i)})
	}
	if got := s.Pick(); got != 1 {
		t.Fatalf("picked %d, want the grown queue", got)
	}
}

func TestNewStrategy(t *testing.T) {
	for _, name := range []string{"", "fifo", "roundrobin", "chain", "maxqueue"} {
		if s := NewStrategy(name); s == nil {
			t.Fatalf("nil strategy for %q", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown strategy should panic")
		}
	}()
	NewStrategy("bogus")
}

func TestStrategiesReturnMinusOneWhenIdle(t *testing.T) {
	units := []*Unit{unitWith("a"), unitWith("b")}
	for _, s := range []Strategy{&FIFO{}, &RoundRobin{}, &Chain{}, &MaxQueue{}} {
		s.Init(units)
		if got := s.Pick(); got != -1 {
			t.Fatalf("%s picked %d from empty queues", s.Name(), got)
		}
		if s.Ready() {
			t.Fatalf("%s Ready() with empty queues", s.Name())
		}
	}
}

// TestStrategiesAgainstLinearScan cross-checks every indexed strategy
// against the original O(n) scan semantics over randomized queue states
// and incremental mutations.
func TestStrategiesAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		units := make([]*Unit, n)
		for i := range units {
			var tss []int64
			for k := rng.Intn(4); k > 0; k-- {
				tss = append(tss, rng.Int63n(1000))
			}
			units[i] = unitWith("u", tss...)
			units[i].Steepness = float64(rng.Intn(3))
			units[i].SegPos = rng.Intn(3)
			if len(tss) == 0 && rng.Intn(2) == 0 {
				units[i].Q.Done(0) // pending Done
			}
		}
		for _, mk := range []func() Strategy{
			func() Strategy { return &FIFO{} },
			func() Strategy { return &Chain{} },
			func() Strategy { return &MaxQueue{} },
		} {
			s := mk()
			s.Init(units)
			got := s.Pick()
			want := scanPick(s.Name(), units)
			if !pickEquivalent(s.Name(), units, got, want) {
				t.Fatalf("trial %d %s: indexed pick %d, scan pick %d", trial, s.Name(), got, want)
			}
			// Mutate: drain one ready unit a step and re-check.
			if got >= 0 {
				var scratch [1]stream.Element
				if _, open := units[got].Q.DrainBatch(scratch[:], 1); !open {
					units[got].closed = true
				}
				s.Update(got)
				g2 := s.Pick()
				w2 := scanPick(s.Name(), units)
				if !pickEquivalent(s.Name(), units, g2, w2) {
					t.Fatalf("trial %d %s after drain: indexed %d, scan %d", trial, s.Name(), g2, w2)
				}
			}
		}
	}
}

// scanPick reimplements the pre-index O(n) selection for cross-checking.
func scanPick(name string, units []*Unit) int {
	switch name {
	case "fifo":
		best, bestTS := -1, int64(1<<62)
		for i, u := range units {
			ready, ts, n := gaugesOf(u)
			if !ready {
				continue
			}
			if n == 0 {
				return i
			}
			if ts < bestTS {
				best, bestTS = i, ts
			}
		}
		return best
	case "chain":
		best := -1
		var bestSteep float64
		bestPos := int(^uint(0) >> 1)
		bestTS := int64(1 << 62)
		for i, u := range units {
			ready, ts, n := gaugesOf(u)
			if !ready {
				continue
			}
			if n == 0 {
				return i
			}
			better := false
			switch {
			case best == -1 || u.Steepness > bestSteep:
				better = true
			case u.Steepness == bestSteep && u.SegPos < bestPos:
				better = true
			case u.Steepness == bestSteep && u.SegPos == bestPos && ts < bestTS:
				better = true
			}
			if better {
				best, bestSteep, bestPos, bestTS = i, u.Steepness, u.SegPos, ts
			}
		}
		return best
	case "maxqueue":
		best, bestLen := -1, -1
		for i, u := range units {
			ready, _, n := gaugesOf(u)
			if !ready {
				continue
			}
			if n > bestLen {
				best, bestLen = i, n
			}
		}
		return best
	}
	panic("scanPick: unknown strategy " + name)
}

// pickEquivalent reports whether two picks are interchangeable under the
// strategy's ordering (the index may break ties differently than the
// scan's first-encountered rule).
func pickEquivalent(name string, units []*Unit, a, b int) bool {
	if a == b {
		return true
	}
	if a < 0 || b < 0 {
		return false
	}
	ra, tsa, na := gaugesOf(units[a])
	rb, tsb, nb := gaugesOf(units[b])
	if !ra || !rb {
		return false
	}
	switch name {
	case "fifo":
		return tsa == tsb || na == 0 && nb == 0
	case "chain":
		if na == 0 && nb == 0 {
			return true
		}
		return units[a].Steepness == units[b].Steepness &&
			units[a].SegPos == units[b].SegPos && tsa == tsb
	case "maxqueue":
		return na == nb
	}
	return false
}

// TestFIFOGlobalOrderAtBatchGranularity is the property test for the FIFO
// invariant the ready index must preserve: with Batch=1 a single executor
// delivers elements in global event-time order across all its queues.
func TestFIFOGlobalOrderAtBatchGranularity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nq, per = 6, 200
	units := make([]*Unit, nq)
	rec := &orderRecorder{}
	next := int64(0)
	for i := range units {
		q := queue.New("q", 0)
		q.Subscribe(rec, 0)
		units[i] = &Unit{Q: q}
	}
	// Deal globally increasing timestamps round-robin-randomly across the
	// queues, so every queue's buffer is locally sorted (the FIFO model).
	for k := 0; k < nq*per; k++ {
		next += int64(1 + rng.Intn(5))
		enqueue(units[rng.Intn(nq)].Q, stream.Element{TS: next})
	}
	s := initStrat(&FIFO{}, units)
	var scratch [1]stream.Element
	for {
		i := s.Pick()
		if i < 0 {
			break
		}
		if _, open := units[i].Q.DrainBatch(scratch[:], 1); !open {
			units[i].closed = true
		}
		s.Update(i)
	}
	if len(rec.ts) != nq*per {
		t.Fatalf("delivered %d of %d", len(rec.ts), nq*per)
	}
	if !sort.SliceIsSorted(rec.ts, func(i, j int) bool { return rec.ts[i] < rec.ts[j] }) {
		t.Fatal("batch=1 FIFO drain violated global event-time order")
	}
}

type orderRecorder struct{ ts []int64 }

func (r *orderRecorder) ProcessBatch(_ int, es []stream.Element) {
	for _, e := range es {
		r.ts = append(r.ts, e.TS)
	}
}
func (r *orderRecorder) Done(int) {}

// TestPickDoesNotAllocate guards the hot path: a Pick+Update cycle on
// every strategy must run allocation-free once the index is built.
func TestPickDoesNotAllocate(t *testing.T) {
	units := make([]*Unit, 64)
	for i := range units {
		units[i] = unitWith("q", int64(i), int64(i+100), int64(i+200))
		units[i].Steepness = float64(i % 5)
		units[i].SegPos = i % 3
	}
	for _, s := range []Strategy{&FIFO{}, &RoundRobin{}, &Chain{}, &MaxQueue{}} {
		s.Init(units)
		got := testing.AllocsPerRun(200, func() {
			i := s.Pick()
			if i < 0 {
				t.Fatal("no pick")
			}
			s.Update(i)
		})
		if got != 0 {
			t.Fatalf("%s: %v allocs per Pick+Update, want 0", s.Name(), got)
		}
	}
}
