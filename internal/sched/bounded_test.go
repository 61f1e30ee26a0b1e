package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/workload"
	"github.com/dsms/hmts/internal/xrand"
)

// TestBoundedChainCooperative is the canonical ROADMAP repro for the
// bounded-queue deadlock: a filter→map chain split into two partitions
// with bounded queues, level-3 TS at MaxConcurrent=1, GOMAXPROCS=1. The
// producer partition fills the consumer's queue; before cooperative
// blocking it parked holding the only run permit and the graph froze.
// One-element drains (Batch=1) and batched drains must both drain to
// completion with every bound respected.
func TestBoundedChainCooperative(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 20_000
	const bound = 128
	for _, tc := range []struct {
		name  string
		batch int
	}{
		{"scalar", 1},
		{"batch", 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, sink := chainGraph(n)
			d, err := Build(g, OTS(g), Options{
				QueueBound: bound,
				Batch:      tc.batch,
				TS:         &TSConfig{MaxConcurrent: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			d.Start()
			done := make(chan struct{})
			go func() { d.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("bounded HMTS chain deadlocked")
			}
			sink.Wait()
			if got := len(sink.Elements()); got != n/2 {
				t.Fatalf("sink got %d elements, want %d", got, n/2)
			}
			stalled := false
			for _, q := range d.Queues() {
				if q.MaxLen() > bound {
					t.Errorf("queue %s MaxLen %d exceeds bound %d", q.Name(), q.MaxLen(), bound)
				}
				if q.FullBlocks() > 0 {
					stalled = true
					if q.BlockedNS() <= 0 {
						t.Errorf("queue %s counted %d full-blocks but no blocked time", q.Name(), q.FullBlocks())
					}
				}
			}
			if !stalled {
				t.Log("note: run completed without ever filling a queue")
			}
		})
	}
}

// diamondGraph builds src → {even, odd} → {+1, +2} → union → sink: two
// parallel partitioned branches reconverging, so under a full cut four
// executors push across partition boundaries concurrently.
func diamondGraph(n int) (*graph.Graph, *op.Collector) {
	g := graph.New()
	src := workload.New("src", n, workload.SeqKeys(), workload.FixedRate{Hz: 1e6}, nil)
	even := op.NewFilter("even", func(e stream.Element) bool { return e.Key%2 == 0 })
	odd := op.NewFilter("odd", func(e stream.Element) bool { return e.Key%2 != 0 })
	add1 := op.NewMap("add1", func(e stream.Element) stream.Element { e.Val += 1; return e })
	add2 := op.NewMap("add2", func(e stream.Element) stream.Element { e.Val += 2; return e })
	union := op.NewUnion("union", 2)
	sink := op.NewCollector(1)

	ns := g.AddSource("src", src, 1e6)
	ne := g.AddOp("even", even, 100, 0.5)
	no := g.AddOp("odd", odd, 100, 0.5)
	n1 := g.AddOp("add1", add1, 100, 1)
	n2 := g.AddOp("add2", add2, 100, 1)
	nu := g.AddOp("union", union, 100, 1)
	nk := g.AddSink("out", sink)
	g.Connect(ns, ne, 0)
	g.Connect(ns, no, 0)
	g.Connect(ne, n1, 0)
	g.Connect(no, n2, 0)
	g.Connect(n1, nu, 0)
	g.Connect(n2, nu, 1)
	g.Connect(nu, nk, 0)
	if err := g.DeriveRates(); err != nil {
		panic(err)
	}
	return g, sink
}

// TestBoundedRandomDiamonds fuzzes multi-partition diamond topologies
// with tiny bounds: random bound/strategy/batch/permit-count combinations
// must all complete and agree on the result multiset. Run under -race via
// `make race`.
func TestBoundedRandomDiamonds(t *testing.T) {
	const n = 4000
	trials := 12
	if testing.Short() {
		trials = 4
	}
	var want []string
	strategies := []string{"fifo", "chain", "roundrobin", "maxqueue"}
	rng := xrand.New(42)
	for trial := 0; trial < trials; trial++ {
		opts := Options{
			QueueBound: 1 + rng.Intn(4),
			Batch:      []int{1, 3, 64}[rng.Intn(3)],
			Strategy:   strategies[rng.Intn(len(strategies))],
			TS:         &TSConfig{MaxConcurrent: 1 + rng.Intn(3)},
		}
		name := fmt.Sprintf("trial %d (bound=%d batch=%d strat=%s maxc=%d)",
			trial, opts.QueueBound, opts.Batch, opts.Strategy, opts.TS.MaxConcurrent)
		g, sink := diamondGraph(n)
		d, err := Build(g, OTS(g), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d.Start()
		done := make(chan struct{})
		go func() { d.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: deadlocked", name)
		}
		sink.Wait()
		for _, q := range d.Queues() {
			if q.MaxLen() > opts.QueueBound {
				t.Fatalf("%s: queue %s MaxLen %d exceeds bound %d",
					name, q.Name(), q.MaxLen(), opts.QueueBound)
			}
		}
		got := sortedKeyVals(sink.Elements())
		if want == nil {
			want = got
			if len(want) != n {
				t.Fatalf("%s: got %d results, want %d", name, len(want), n)
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: got %d results, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: result %d = %s, want %s", name, i, got[i], want[i])
			}
		}
	}
}

// TestReconfigureWithBoundedQueuesUnderLoad re-cuts a live bounded
// deployment while producers are routinely parking on tiny bounds: the
// splice must neither deadlock (the lifted `Reconfigure requires
// unbounded queues` refusal) nor lose elements.
func TestReconfigureWithBoundedQueuesUnderLoad(t *testing.T) {
	const n = 30_000
	g, sink := chainGraph(n)
	d, err := Build(g, OTS(g), Options{QueueBound: 4, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	for i, plan := range []Plan{DI(g), OTS(g), GTS(g)} {
		time.Sleep(2 * time.Millisecond)
		errc := make(chan error, 1)
		go func() { errc <- d.Reconfigure(plan, "") }()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("reconfigure %d: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("reconfigure %d deadlocked behind bounded queues", i)
		}
	}
	d.Wait()
	sink.Wait()
	if got := len(sink.Elements()); got != n/2 {
		t.Fatalf("sink got %d elements, want %d (reconfigure lost data)", got, n/2)
	}
}

// TestReconfigureSourceGateWait is the regression for the source-side
// gate deadlock: two sources fused into one gated VO feed a bounded
// queue whose consumer partition is wedged. Source A fills the queue and
// parks holding the VO entry gate and its world read lock; source B
// blocks on the gate, holding its read lock too. Reconfigure has already
// halted the only consumer, so it would hang forever in world.Lock()
// behind them. The splice transaction quiesces the sources first:
// closing the quiesce channel aborts A's park, A's push completes past
// the bound and frees the gate, and B's delivery completes the same way,
// so both release their read locks. The sources resume against the
// rewired targets afterwards, and the splice drops nothing.
func TestReconfigureSourceGateWait(t *testing.T) {
	const n = 10_000
	const bound = 4
	release := make(chan struct{})
	var entered atomic.Bool

	g := graph.New()
	s1 := workload.New("s1", n, workload.SeqKeys(), workload.FixedRate{Hz: 1e6}, nil)
	s2 := workload.New("s2", n, workload.SeqKeys(), workload.FixedRate{Hz: 1e6}, nil)
	union := op.NewUnion("union", 2)
	b := op.NewMap("b", func(e stream.Element) stream.Element {
		if entered.CompareAndSwap(false, true) {
			<-release // wedge the consumer partition on its first element
		}
		return e
	})
	c := op.NewMap("c", func(e stream.Element) stream.Element { return e })
	sink := op.NewCollector(1)
	n1 := g.AddSource("s1", s1, 1e6)
	n2 := g.AddSource("s2", s2, 1e6)
	nu := g.AddOp("union", union, 100, 1)
	nb := g.AddOp("b", b, 100, 1)
	nc := g.AddOp("c", c, 100, 1)
	nk := g.AddSink("out", sink)
	g.Connect(n1, nu, 0)
	g.Connect(n2, nu, 1)
	g.Connect(nu, nb, 0)
	g.Connect(nb, nc, 0)
	g.Connect(nc, nk, 0)
	if err := g.DeriveRates(); err != nil {
		t.Fatal(err)
	}

	keyOf := func(from, to *graph.Node) graph.EdgeKey {
		for _, e := range g.Edges() {
			if e.From == from.ID && e.To == to.ID {
				return e.Key()
			}
		}
		t.Fatalf("no edge %s->%s", from.Name, to.Name)
		return graph.EdgeKey{}
	}
	cut0 := map[graph.EdgeKey]bool{keyOf(nu, nb): true}
	d, err := Build(g, Plan{Cut: cut0}, Options{QueueBound: bound, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	qub := d.Queue(keyOf(nu, nb))
	d.Start()

	// Wait until the consumer is wedged, the fused VO's output queue is
	// full, and a source has parked on it — it is holding the gate, so the
	// other source is (or will shortly be) blocked on the gate.
	deadline := time.Now().Add(20 * time.Second)
	for !(entered.Load() && qub.Len() >= bound && qub.FullBlocks() > 0) {
		if time.Now().After(deadline) {
			t.Fatalf("setup never reached the parked state: entered=%v len=%d blocks=%d",
				entered.Load(), qub.Len(), qub.FullBlocks())
		}
		time.Sleep(time.Millisecond)
	}

	newCut := map[graph.EdgeKey]bool{keyOf(nb, nc): true}
	errc := make(chan error, 1)
	go func() { errc <- d.Reconfigure(Plan{Cut: newCut}, "") }()
	time.Sleep(10 * time.Millisecond) // let Reconfigure reach the halt
	close(release)                    // un-wedge the consumer
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("reconfigure: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("reconfigure deadlocked behind a source blocked on a VO gate")
	}
	d.Wait()
	sink.Wait()
	if dropped := qub.Dropped(); dropped != 0 {
		t.Fatalf("splice dropped %d elements, want 0", dropped)
	}
	if got := len(sink.Elements()); got != 2*n {
		t.Fatalf("sink got %d elements, want %d", got, 2*n)
	}
	if q := d.Queue(keyOf(nb, nc)); q == nil {
		t.Fatal("spliced-in queue missing")
	} else if q.MaxLen() > bound+8 {
		t.Fatalf("spliced-in queue MaxLen %d far exceeds bound %d", q.MaxLen(), bound)
	}
}

// TestReconfigureSplicePastBlockedProducer is the deterministic splice
// shape: partition A's executor is parked pushing into partition B's full
// queue while B is wedged inside a slow operator. Reconfigure must halt
// A (force-flushing its in-flight push), wait out B, splice, and finish
// with every element accounted for.
func TestReconfigureSplicePastBlockedProducer(t *testing.T) {
	const n = 5000
	const bound = 4
	release := make(chan struct{})
	var entered atomic.Bool

	g := graph.New()
	src := workload.New("src", n, workload.SeqKeys(), workload.FixedRate{Hz: 1e6}, nil)
	a := op.NewMap("a", func(e stream.Element) stream.Element { e.Val++; return e })
	b := op.NewMap("b", func(e stream.Element) stream.Element {
		if entered.CompareAndSwap(false, true) {
			<-release // wedge the consumer partition on its first element
		}
		return e
	})
	c := op.NewMap("c", func(e stream.Element) stream.Element { return e })
	sink := op.NewCollector(1)
	ns := g.AddSource("src", src, 1e6)
	na := g.AddOp("a", a, 100, 1)
	nb := g.AddOp("b", b, 100, 1)
	nc := g.AddOp("c", c, 100, 1)
	nk := g.AddSink("out", sink)
	g.Connect(ns, na, 0)
	g.Connect(na, nb, 0)
	g.Connect(nb, nc, 0)
	g.Connect(nc, nk, 0)
	if err := g.DeriveRates(); err != nil {
		t.Fatal(err)
	}

	keyOf := func(from, to *graph.Node) graph.EdgeKey {
		for _, e := range g.Edges() {
			if e.From == from.ID && e.To == to.ID {
				return e.Key()
			}
		}
		t.Fatalf("no edge %s->%s", from.Name, to.Name)
		return graph.EdgeKey{}
	}
	cut0 := map[graph.EdgeKey]bool{keyOf(ns, na): true, keyOf(na, nb): true}
	d, err := Build(g, Plan{Cut: cut0}, Options{QueueBound: bound, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	qab := d.Queue(keyOf(na, nb))
	d.Start()

	// Wait until the consumer partition is wedged, its entry queue is
	// full, and the producer executor has parked pushing into it.
	deadline := time.Now().Add(20 * time.Second)
	for !(entered.Load() && qab.Len() >= bound && qab.FullBlocks() > 0) {
		if time.Now().After(deadline) {
			t.Fatalf("setup never reached the parked state: entered=%v len=%d blocks=%d",
				entered.Load(), qab.Len(), qab.FullBlocks())
		}
		time.Sleep(time.Millisecond)
	}

	// Splice past the full queue: move the cut from a→b to b→c while the
	// producer of q(a→b) is parked on it.
	newCut := map[graph.EdgeKey]bool{keyOf(ns, na): true, keyOf(nb, nc): true}
	errc := make(chan error, 1)
	go func() { errc <- d.Reconfigure(Plan{Cut: newCut}, "") }()
	time.Sleep(10 * time.Millisecond) // let Reconfigure reach the halt
	close(release)                    // un-wedge the consumer
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("reconfigure: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("reconfigure deadlocked splicing past a full bounded queue")
	}
	d.Wait()
	sink.Wait()
	if got := len(sink.Elements()); got != n {
		t.Fatalf("sink got %d elements, want %d", got, n)
	}
	if q := d.Queue(keyOf(nb, nc)); q == nil {
		t.Fatal("spliced-in queue missing")
	}
}
