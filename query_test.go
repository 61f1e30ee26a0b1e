package hmts_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/testutil"
)

// memSink collects a query's results and tracks end-of-stream, failing
// the ordering contract checks if an element arrives after Done.
type memSink struct {
	mu        sync.Mutex
	els       []hmts.Element
	done      int
	afterDone int
	doneCh    chan struct{}
}

func newMemSink() *memSink { return &memSink{doneCh: make(chan struct{})} }

func (m *memSink) Process(_ int, e hmts.Element) {
	m.mu.Lock()
	if m.done > 0 {
		m.afterDone++
	}
	m.els = append(m.els, e)
	m.mu.Unlock()
}

func (m *memSink) Done(int) {
	m.mu.Lock()
	m.done++
	if m.done == 1 {
		close(m.doneCh)
	}
	m.mu.Unlock()
}

func (m *memSink) wait(t *testing.T) {
	t.Helper()
	select {
	case <-m.doneCh:
	case <-time.After(30 * time.Second):
		t.Fatal("sink never saw Done")
	}
}

func (m *memSink) snapshot() (els []hmts.Element, done, afterDone int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]hmts.Element(nil), m.els...), m.done, m.afterDone
}

// opSpec is one randomly drawn operator, applied identically to the
// shared multi-query engine and to an independent single-query engine.
type opSpec struct {
	kind int
	a    float64
	i    int
	name string
}

func randOp(rng *rand.Rand, pos string) opSpec {
	sp := opSpec{kind: rng.Intn(6), a: float64(rng.Intn(90)+5) / 100, i: rng.Intn(5)}
	sp.name = fmt.Sprintf("%s|k%d|a%g|i%d", pos, sp.kind, sp.a, sp.i)
	return sp
}

func (sp opSpec) apply(s *hmts.Stream) *hmts.Stream {
	switch sp.kind {
	case 0:
		thr := sp.a
		return s.Where(sp.name, func(e hmts.Element) bool { return e.Val > thr })
	case 1:
		add := sp.a
		return s.Map(sp.name, func(e hmts.Element) hmts.Element { e.Val += add; return e })
	case 2:
		return s.Distinct(sp.name, time.Duration(sp.i+1)*time.Millisecond)
	case 3:
		return s.AggregateRows(sp.name, hmts.Sum, sp.i+2, func(e hmts.Element) int64 { return e.Key })
	case 4:
		return s.Aggregate(sp.name, hmts.Count, time.Duration(sp.i+1)*time.Millisecond, func(e hmts.Element) int64 { return e.Key })
	case 5:
		return s.TopK(sp.name, sp.i+2, time.Duration(sp.i+1)*time.Millisecond)
	}
	panic("unreachable")
}

func applyAll(s *hmts.Stream, specs []opSpec) *hmts.Stream {
	for _, sp := range specs {
		s = sp.apply(s)
	}
	return s
}

func trialData(rng *rand.Rand, n int) []hmts.Element {
	els := make([]hmts.Element, n)
	for i := range els {
		els[i] = hmts.Element{TS: hmts.Time(i) * 1000, Key: rng.Int63n(32), Val: rng.Float64()}
	}
	return els
}

// TestSharedQueriesMatchIndependent is the equivalence test of the
// multi-query subsumption layer: N queries registered on one shared
// engine (prefix-merged, refcounted, fanned out at divergence) must
// produce byte-identical outputs to N independent single-query engines,
// over randomized plans and seeds, with unbatched and batched sources.
func TestSharedQueriesMatchIndependent(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("trial=%d/batched=%v", trial, batched), func(t *testing.T) {
				runEquivalenceTrial(t, int64(1000+trial), batched)
			})
		}
	}
}

func runEquivalenceTrial(t *testing.T, seed int64, batched bool) {
	rng := rand.New(rand.NewSource(seed))
	data := trialData(rng, 3000)
	prefix := make([]opSpec, rng.Intn(3))
	for i := range prefix {
		prefix[i] = randOp(rng, fmt.Sprintf("pre%d", i))
	}
	numQ := 3 + rng.Intn(3)
	suffixes := make([][]opSpec, numQ)
	for q := range suffixes {
		suffixes[q] = make([]opSpec, 1+rng.Intn(2))
		for i := range suffixes[q] {
			suffixes[q][i] = randOp(rng, fmt.Sprintf("q%d.%d", q, i))
		}
	}
	spec := func() hmts.SourceSpec {
		s := hmts.Replay(data)
		if batched {
			s = s.Batched(64)
		}
		return s
	}
	cfg := hmts.RunConfig{Mode: hmts.ModeGTS, QueueBound: 256}

	// Shared engine: all queries registered through AddQuery.
	shared := hmts.New()
	src := shared.Source("src", spec())
	sinks := make([]*memSink, numQ)
	for q := 0; q < numQ; q++ {
		sinks[q] = newMemSink()
		q := q
		err := shared.AddQuery(fmt.Sprintf("q%d", q), sinks[q], func() (*hmts.Stream, error) {
			return applyAll(applyAll(src, prefix), suffixes[q]), nil
		})
		if err != nil {
			t.Fatalf("AddQuery q%d: %v", q, err)
		}
	}
	shared.MustRun(cfg)
	shared.Wait()
	if err := shared.Err(); err != nil {
		t.Fatalf("shared engine: %v", err)
	}

	// Independent engines: one plain single-query plan each.
	for q := 0; q < numQ; q++ {
		solo := hmts.New()
		ref := newMemSink()
		applyAll(applyAll(solo.Source("src", spec()), prefix), suffixes[q]).Into("out", ref)
		solo.MustRun(cfg)
		solo.Wait()
		if err := solo.Err(); err != nil {
			t.Fatalf("solo engine q%d: %v", q, err)
		}
		want, _, _ := ref.snapshot()
		got, done, after := sinks[q].snapshot()
		if done != 1 || after != 0 {
			t.Fatalf("q%d: done=%d afterDone=%d", q, done, after)
		}
		if len(got) != len(want) {
			t.Fatalf("q%d (seed %d, batched %v): %d results, want %d", q, seed, batched, len(got), len(want))
		}
		for i := range got {
			if got[i].TS != want[i].TS || got[i].Key != want[i].Key || got[i].Val != want[i].Val {
				t.Fatalf("q%d result %d: got %+v, want %+v", q, i, got[i], want[i])
			}
		}
	}
}

// TestAddQueryMarginalCost asserts the headline registration property via
// the operator-count metrics: the Nth similar query allocates only its
// divergent operators — the shared prefix is reused, not rebuilt.
func TestAddQueryMarginalCost(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("src", hmts.Replay(trialData(rand.New(rand.NewSource(7)), 100)))
	build := func(i int) func() (*hmts.Stream, error) {
		return func() (*hmts.Stream, error) {
			thr := float64(i) / 100
			s := src.
				Where("hot", func(e hmts.Element) bool { return e.Val > 0.5 }).
				Map("scale", func(e hmts.Element) hmts.Element { e.Val *= 2; return e }).
				Aggregate("cnt", hmts.Count, time.Millisecond, func(e hmts.Element) int64 { return e.Key })
			return s.Where(fmt.Sprintf("thr%d", i), func(e hmts.Element) bool { return e.Val > thr }), nil
		}
	}
	const numQ = 10
	base := len(eng.Graph().Ops())
	for i := 0; i < numQ; i++ {
		before := len(eng.Graph().Ops())
		if err := eng.AddQuery(fmt.Sprintf("q%d", i), newMemSink(), build(i)); err != nil {
			t.Fatal(err)
		}
		added := len(eng.Graph().Ops()) - before
		want := 1 // just the divergent threshold filter
		if i == 0 {
			want = 4 // first query pays for the whole chain
		}
		if added != want {
			t.Fatalf("query %d added %d operators, want %d", i, added, want)
		}
	}
	if total := len(eng.Graph().Ops()) - base; total != 3+numQ {
		t.Fatalf("graph holds %d query operators, want %d", total, 3+numQ)
	}
	m := eng.Metrics()
	if len(m.Queries) != numQ {
		t.Fatalf("metrics list %d queries, want %d", len(m.Queries), numQ)
	}
	for i, qm := range m.Queries {
		if qm.Name != fmt.Sprintf("q%d", i) {
			t.Fatalf("query %d listed as %q: registration order lost", i, qm.Name)
		}
		if qm.Shared != 3 || qm.Private != 1 || qm.Ops != 4 {
			t.Fatalf("%s: shared=%d private=%d ops=%d, want 3/1/4", qm.Name, qm.Shared, qm.Private, qm.Ops)
		}
	}
}

// TestDropQueryPrunesExclusiveSuffix checks the refcount/prune protocol
// before Run: dropping a query removes exactly the operators only it
// used, and dropping the last query sharing a prefix removes the prefix.
func TestDropQueryPrunesExclusiveSuffix(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("src", hmts.Replay(trialData(rand.New(rand.NewSource(8)), 100)))
	reg := func(name string, thr float64) {
		err := eng.AddQuery(name, newMemSink(), func() (*hmts.Stream, error) {
			s := src.Where("hot", func(e hmts.Element) bool { return e.Val > 0.5 })
			return s.Where(fmt.Sprintf("thr%g", thr), func(e hmts.Element) bool { return e.Val > thr }), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	reg("a", 0.6)
	reg("b", 0.7)
	if got := len(eng.Graph().Ops()); got != 3 {
		t.Fatalf("got %d ops, want 3 (shared prefix + 2 divergent)", got)
	}
	if err := eng.DropQuery("b"); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Graph().Ops()); got != 2 {
		t.Fatalf("after dropping b: %d ops, want 2", got)
	}
	if err := eng.DropQuery("a"); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Graph().Ops()); got != 0 {
		t.Fatalf("after dropping both: %d ops, want 0", got)
	}
	if err := eng.DropQuery("a"); err == nil {
		t.Fatal("double drop not rejected")
	}
	// The graph is clean enough to register and run a fresh query.
	reg("c", 0.4)
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeGTS})
	eng.Wait()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestAddQueryRejectsInvalid covers duplicate names, in-closure sources,
// and rollback: a failed registration must leave no trace in the graph.
func TestAddQueryRejectsInvalid(t *testing.T) {
	eng := hmts.New()
	src := eng.Source("src", hmts.Replay(trialData(rand.New(rand.NewSource(9)), 10)))
	ok := func() (*hmts.Stream, error) {
		return src.Where("w", func(e hmts.Element) bool { return true }), nil
	}
	if err := eng.AddQuery("q", newMemSink(), ok); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery("q", newMemSink(), ok); err == nil {
		t.Fatal("duplicate name not rejected")
	}
	before := eng.Graph().Len()
	err := eng.AddQuery("bad-src", newMemSink(), func() (*hmts.Stream, error) {
		s := eng.Source("rogue", hmts.Replay(nil))
		return s.Where("x", func(e hmts.Element) bool { return true }), nil
	})
	if err == nil {
		t.Fatal("in-closure source not rejected")
	}
	if eng.Graph().Len() != before {
		t.Fatalf("failed registration leaked nodes: %d -> %d", before, eng.Graph().Len())
	}
	err = eng.AddQuery("bad-build", newMemSink(), func() (*hmts.Stream, error) {
		src.Where("dead-end", func(e hmts.Element) bool { return true })
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("build error not propagated")
	}
	if eng.Graph().Len() != before {
		t.Fatalf("aborted build leaked nodes: %d -> %d", before, eng.Graph().Len())
	}
}

// TestLiveAddDropUnderLoad drives a running engine from an external
// Block-policy source and adds/drops queries mid-stream under bounded
// queues: nothing may be dropped, a live-added query's output must be an
// exact suffix of the standing query's output (same shared operator, so
// same elements from the splice point on), and a live-dropped query gets
// exactly one Done with nothing delivered after it.
func TestLiveAddDropUnderLoad(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := hmts.New()
	ext := hmts.External("ingress", hmts.ExternalConfig{Policy: hmts.Block, Buffer: 128})
	src := eng.Source("ingress", ext.Spec())
	pass := func(e hmts.Element) bool { return true }

	standing := newMemSink()
	if err := eng.AddQuery("standing", standing, func() (*hmts.Stream, error) {
		return src.Where("all", pass), nil
	}); err != nil {
		t.Fatal(err)
	}
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeGTS, QueueBound: 64})

	const total = 30_000
	push := func(from, to int) {
		for i := from; i < to; i++ {
			// TS starts at 1000: a zero TS would be stamped with the
			// wall-clock arrival time, breaking monotonicity checks.
			if !ext.Push(hmts.Element{TS: hmts.Time(i+1) * 1000, Key: int64(i % 50), Val: float64(i)}) {
				t.Errorf("push %d rejected under Block policy", i)
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); push(0, total/2) }()

	// Live add while the first half is in flight.
	late := newMemSink()
	if err := eng.AddQuery("late", late, func() (*hmts.Stream, error) {
		return src.Where("all", pass), nil
	}); err != nil {
		t.Fatalf("live AddQuery: %v", err)
	}
	// A transient query that is dropped mid-load.
	doomed := newMemSink()
	if err := eng.AddQuery("doomed", doomed, func() (*hmts.Stream, error) {
		return src.Where("all", pass).Map("x2", func(e hmts.Element) hmts.Element { e.Val *= 2; return e }), nil
	}); err != nil {
		t.Fatalf("live AddQuery: %v", err)
	}
	wg.Wait()
	wg.Add(1)
	go func() { defer wg.Done(); push(total/2, total) }()
	if err := eng.DropQuery("doomed"); err != nil {
		t.Fatalf("live DropQuery: %v", err)
	}
	doomed.wait(t)
	wg.Wait()
	ext.Close()
	eng.Wait()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}

	for _, in := range eng.Metrics().Ingest {
		if in.Dropped != 0 {
			t.Fatalf("ingress dropped %d elements under Block policy", in.Dropped)
		}
	}
	full, done, after := standing.snapshot()
	if done != 1 || after != 0 {
		t.Fatalf("standing: done=%d afterDone=%d", done, after)
	}
	if len(full) != total {
		t.Fatalf("standing query saw %d of %d elements", len(full), total)
	}
	suffix, done, after := late.snapshot()
	if done != 1 || after != 0 {
		t.Fatalf("late: done=%d afterDone=%d", done, after)
	}
	if len(suffix) == 0 {
		t.Fatal("live-added query produced nothing")
	}
	tail := full[len(full)-len(suffix):]
	for i := range suffix {
		if suffix[i] != tail[i] {
			t.Fatalf("late query output diverges at %d: got %+v, want %+v", i, suffix[i], tail[i])
		}
	}
	got, done, after := doomed.snapshot()
	if done != 1 || after != 0 {
		t.Fatalf("doomed: done=%d afterDone=%d (drop must deliver exactly one Done, then nothing)", done, after)
	}
	// The dropped query's output is an in-order run of doubled values.
	for i := 1; i < len(got); i++ {
		if got[i].TS <= got[i-1].TS {
			t.Fatalf("doomed output out of order at %d", i)
		}
	}
	t.Logf("standing=%d late=%d doomed=%d", len(full), len(suffix), len(got))
}

// TestLiveDropSourceSuffixUnderLoad churns queries whose private suffix
// hangs directly off the source — so each drop removes a source out-edge
// — while producers are parked on Block-full bounded queues. Regression:
// the source adapter used to index its rebuilt target list by position
// after waking from a park, panicking (index out of range) when the drop
// splice shrank the list, which fail-stopped the engine and abandoned the
// standing query's queued elements.
func TestLiveDropSourceSuffixUnderLoad(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for trial := 0; trial < 10; trial++ {
		eng := hmts.New()
		ext := hmts.External("ext", hmts.ExternalConfig{Policy: hmts.Block, Buffer: 64})
		src := eng.Source("ext", ext.Spec())
		standing := newMemSink()
		src.Where("keep", func(e hmts.Element) bool { return e.Key < 50 }).Into("keep-sink", standing)
		eng.MustRun(hmts.RunConfig{Mode: hmts.ModeGTS, QueueBound: 32})

		pushed := make(chan struct{})
		go func() {
			defer close(pushed)
			for i := 0; i < 4000; i++ {
				ext.Push(hmts.Element{TS: hmts.Time(i+1) * 1000, Key: int64(i % 100), Val: float64(i)})
			}
			ext.Close()
		}()
		for j := 0; j < 6; j++ {
			name := fmt.Sprintf("tmp%d", j)
			j := j
			if err := eng.AddQuery(name, newMemSink(), func() (*hmts.Stream, error) {
				return src.Where(fmt.Sprintf("priv%d", j), func(e hmts.Element) bool { return e.Key >= 50 }), nil
			}); err != nil {
				t.Fatalf("trial %d add: %v", trial, err)
			}
			time.Sleep(2 * time.Millisecond)
			if err := eng.DropQuery(name); err != nil {
				t.Fatalf("trial %d drop: %v (engine err: %v)", trial, err, eng.Err())
			}
		}
		<-pushed
		eng.Wait()
		if err := eng.Err(); err != nil {
			t.Fatalf("trial %d engine error: %v", trial, err)
		}
		els, done, afterDone := standing.snapshot()
		if len(els) != 2000 || done != 1 || afterDone != 0 {
			t.Fatalf("trial %d standing got %d els (want 2000), done=%d afterDone=%d", trial, len(els), done, afterDone)
		}
	}
}

// TestLiveAddSharesOperators verifies subsumption happens on a running
// engine too: a mid-stream registration with a common prefix reuses the
// live operators (metrics show them shared) and keeps the standing
// query's output complete.
func TestLiveAddSharesOperators(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := hmts.New()
	ext := hmts.External("ingress", hmts.ExternalConfig{Policy: hmts.Block, Buffer: 128})
	src := eng.Source("ingress", ext.Spec())
	q1 := newMemSink()
	if err := eng.AddQuery("q1", q1, func() (*hmts.Stream, error) {
		s := src.
			Where("hot", func(e hmts.Element) bool { return e.Val >= 0 }).
			Aggregate("cnt", hmts.Count, time.Millisecond, func(e hmts.Element) int64 { return e.Key })
		return s.Where("thr1", func(e hmts.Element) bool { return e.Val > 1 }), nil
	}); err != nil {
		t.Fatal(err)
	}
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS, QueueBound: 128})
	for i := 0; i < 5000; i++ {
		ext.Push(hmts.Element{TS: hmts.Time(i) * 1000, Key: int64(i % 10), Val: 1})
	}
	q2 := newMemSink()
	opsBefore := len(eng.Graph().Ops())
	if err := eng.AddQuery("q2", q2, func() (*hmts.Stream, error) {
		s := src.
			Where("hot", func(e hmts.Element) bool { return e.Val >= 0 }).
			Aggregate("cnt", hmts.Count, time.Millisecond, func(e hmts.Element) int64 { return e.Key })
		return s.Where("thr2", func(e hmts.Element) bool { return e.Val > 2 }), nil
	}); err != nil {
		t.Fatalf("live AddQuery: %v", err)
	}
	if added := len(eng.Graph().Ops()) - opsBefore; added != 1 {
		t.Fatalf("live registration added %d operators, want 1", added)
	}
	for i := 5000; i < 10000; i++ {
		ext.Push(hmts.Element{TS: hmts.Time(i) * 1000, Key: int64(i % 10), Val: 1})
	}
	ext.Close()
	eng.Wait()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if len(m.Queries) != 2 {
		t.Fatalf("metrics list %d queries, want 2", len(m.Queries))
	}
	for _, qm := range m.Queries {
		if qm.Shared != 2 || qm.Private != 1 {
			t.Fatalf("%s: shared=%d private=%d, want 2/1", qm.Name, qm.Shared, qm.Private)
		}
	}
	if _, done, _ := q1.snapshot(); done != 1 {
		t.Fatal("q1 never completed")
	}
	els2, done, _ := q2.snapshot()
	if done != 1 {
		t.Fatal("q2 never completed")
	}
	if len(els2) == 0 {
		t.Fatal("live-added query over shared aggregate produced nothing")
	}
}
