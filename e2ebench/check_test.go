package main

import (
	"fmt"
	"math"
	"sync"
	"testing"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/ql"
)

// collectSink gathers one query's results as the daemon would send them.
type collectSink struct {
	mu  sync.Mutex
	out []result
}

func (c *collectSink) Process(_ int, e hmts.Element) {
	c.mu.Lock()
	c.out = append(c.out, result{ts: e.TS, key: e.Key, bits: math.Float64bits(e.Val)})
	c.mu.Unlock()
}

func (c *collectSink) Done(int) {}

// engineResults runs the plan's queries over the first n seeded elements
// through the real engine, in process, and returns each query's results.
func engineResults(t *testing.T, p *runPlan, seed uint64, n int) [][]result {
	t.Helper()
	eng := hmts.New()
	ext := hmts.External("ext", hmts.ExternalConfig{})
	sources := map[string]*hmts.Stream{"ext": eng.Source("ext", ext.Spec())}
	sinks := make([]*collectSink, len(p.queries))
	for i, q := range p.queries {
		parsed, err := ql.Parse(q.text)
		if err != nil {
			t.Fatal(err)
		}
		sinks[i] = &collectSink{}
		if err := eng.AddQuery(fmt.Sprintf("q%d", i), sinks[i], func() (*hmts.Stream, error) {
			return ql.Plan(eng, sources, parsed)
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.MustRun(hmts.RunConfig{Mode: hmts.ModeHMTS, QueueBound: 1024})
	in := newInput(seed, p.spacing)
	batch := make([]hmts.Element, 0, 256)
	for i := 0; i < n; i++ {
		ts, key, val := in.next()
		batch = append(batch, hmts.Element{TS: ts, Key: key, Val: val})
		if len(batch) == cap(batch) || i == n-1 {
			ext.PushBatch(batch)
			batch = batch[:0]
		}
	}
	ext.Close()
	eng.Wait()
	out := make([][]result, len(sinks))
	for i, s := range sinks {
		out[i] = s.out
	}
	return out
}

func clone(rs [][]result) [][]result {
	out := make([][]result, len(rs))
	for i := range rs {
		out[i] = append([]result(nil), rs[i]...)
	}
	return out
}

// TestCheckerCatchesCorruption is the checker's self-test: a clean run of
// the real engine passes, and one result corrupted three ways — missing,
// extra, wrong value — fails it each time.
func TestCheckerCatchesCorruption(t *testing.T) {
	const seed, n = 11, 200_000
	// 2000 ns spacing puts 500k elements in a 1 s window: windows fill and
	// expire within the stream.
	p := &runPlan{spacing: 2000, standing: 2, queries: []query{
		{text: whereAgg, lo: 0, hi: keyMax},
		keyQuery(3, false),
		keyQuery(5, true),
	}}
	clean := engineResults(t, p, seed, n)
	if len(clean[0]) == 0 || len(clean[1]) == 0 || len(clean[2]) == 0 {
		t.Fatalf("engine produced no results: %d %d %d", len(clean[0]), len(clean[1]), len(clean[2]))
	}
	// A churned query is registered for part of the stream only.
	clean[2] = clean[2][len(clean[2])/3 : 2*len(clean[2])/3]
	if rep := check(p, seed, n, clone(clean)); rep.failures() != 0 || rep.Matched == 0 {
		t.Fatalf("clean run failed the check: %+v", rep)
	}

	mid := len(clean[1]) / 2
	corruptions := []struct {
		name  string
		apply func(rs [][]result)
		field func(checkReport) int
	}{
		{"missing", func(rs [][]result) { rs[1] = append(rs[1][:mid], rs[1][mid+1:]...) }, func(c checkReport) int { return c.Missing }},
		{"extra", func(rs [][]result) {
			rs[1] = append(rs[1][:mid+1], rs[1][mid:]...) // duplicate one result
		}, func(c checkReport) int { return c.Extra }},
		{"wrong", func(rs [][]result) {
			rs[1][mid].bits = math.Float64bits(rs[1][mid].val() * (1 + 1e-7))
		}, func(c checkReport) int { return c.Wrong }},
		{"extra on a churned query", func(rs [][]result) {
			r := rs[2][0]
			r.ts++ // no element has this timestamp
			rs[2] = append([]result{r}, rs[2]...)
		}, func(c checkReport) int { return c.Extra }},
	}
	for _, c := range corruptions {
		rs := clone(clean)
		c.apply(rs)
		rep := check(p, seed, n, rs)
		if c.field(rep) != 1 || rep.failures() != 1 {
			t.Errorf("%s: checker reported %+v, want exactly that one failure", c.name, rep)
		}
	}
}
