package hmts

import (
	"fmt"
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/stream"
)

// Stream is a handle to one node's output during query construction. All
// builder methods append operators to the engine's shared query graph, so
// several queries naturally share subresults (Figure 1's subquery
// sharing): calling two builder methods on the same Stream fans its output
// out to both consumers.
type Stream struct {
	eng  *Engine
	node *graph.Node
}

// Node exposes the underlying graph node (for hints and planning).
func (s *Stream) Node() *graph.Node { return s.node }

// Hint overrides the planning estimates of the stream's producing
// operator: per-element cost in nanoseconds and selectivity. The HMTS
// placement heuristic consumes these until measurements replace them.
func (s *Stream) Hint(costNS, selectivity float64) *Stream {
	s.node.CostNS = costNS
	s.node.Selectivity = selectivity
	return s
}

// AggKind re-exports the aggregate functions.
type AggKind = op.AggKind

// Aggregate kinds.
const (
	Count = op.AggCount
	Sum   = op.AggSum
	Avg   = op.AggAvg
	Min   = op.AggMin
	Max   = op.AggMax
)

func (e *Engine) stream(n *graph.Node) *Stream { return &Stream{eng: e, node: n} }

// fpIns describes a prospective operator's upstream attachments for the
// multi-query sharing layer: stream i feeds input port i.
func fpIns(ss ...*Stream) []graph.FPIn {
	ins := make([]graph.FPIn, len(ss))
	for i, s := range ss {
		ins[i] = graph.FPIn{From: s.node, Port: i}
	}
	return ins
}

// Source registers an autonomous source and returns its output stream.
// rateHint (elements/second) feeds the planner; pass the source's nominal
// rate or 0 if unknown.
func (e *Engine) Source(name string, src SourceSpec) *Stream {
	return e.stream(e.g.AddSource(name, src.src, src.rateHint))
}

// Where appends a selection with the given predicate. Inside an
// AddQuery registration the operator's canonical identity is its name
// plus its upstream chain (a predicate function cannot be hashed), so
// registered queries that reuse a name on the same upstream must mean
// the same predicate — the contract ql.Plan upholds by deriving names
// from expression strings.
func (s *Stream) Where(name string, pred func(Element) bool) *Stream {
	n := s.eng.place("where|"+name, fpIns(s), func() *graph.Node {
		f := op.NewFilter(name, pred)
		n := s.eng.addOp(name, f, 200, 0.5)
		s.eng.g.Connect(s.node, n, 0)
		return n
	})
	return s.eng.stream(n)
}

// Map appends a transformation.
func (s *Stream) Map(name string, fn func(Element) Element) *Stream {
	n := s.eng.place("map|"+name, fpIns(s), func() *graph.Node {
		m := op.NewMap(name, fn)
		n := s.eng.addOp(name, m, 200, 1)
		s.eng.g.Connect(s.node, n, 0)
		return n
	})
	return s.eng.stream(n)
}

// Project appends the canonical projection (keeps TS and Key only).
func (s *Stream) Project(name string) *Stream {
	n := s.eng.place("project|"+name, fpIns(s), func() *graph.Node {
		m := op.NewProject(name)
		n := s.eng.addOp(name, m, 150, 1)
		s.eng.g.Connect(s.node, n, 0)
		return n
	})
	return s.eng.stream(n)
}

// Aggregate appends a sliding-window aggregate of the given kind over a
// time window, optionally grouped by groupBy (nil = whole stream). The
// output carries the group in Key and the aggregate in Val.
func (s *Stream) Aggregate(name string, kind AggKind, window time.Duration, groupBy func(Element) int64) *Stream {
	params := fmt.Sprintf("agg|%s|k=%d|w=%d|g=%t", name, int(kind), int64(window), groupBy != nil)
	n := s.eng.place(params, fpIns(s), func() *graph.Node {
		a := op.NewWindowAgg(name, kind, int64(window), groupBy)
		n := s.eng.addOp(name, a, 1500, 1)
		if groupBy != nil {
			// Grouped aggregates partition by the group key, so they shard.
			n.Shardable = &graph.ShardSpec{
				Ins: 1,
				Key: func(_ int, e stream.Element) int64 { return groupBy(e) },
				New: func(i int) op.Operator {
					return op.NewWindowAgg(fmt.Sprintf("%s#%d", name, i), kind, int64(window), groupBy)
				},
			}
		}
		s.eng.g.Connect(s.node, n, 0)
		return n
	})
	return s.eng.stream(n)
}

// AggregateRows appends a count-based sliding aggregate over the last
// rows elements (per group when groupBy is non-nil) — a ROWS window.
func (s *Stream) AggregateRows(name string, kind AggKind, rows int, groupBy func(Element) int64) *Stream {
	params := fmt.Sprintf("aggrows|%s|k=%d|r=%d|g=%t", name, int(kind), rows, groupBy != nil)
	n := s.eng.place(params, fpIns(s), func() *graph.Node {
		a := op.NewCountWindowAgg(name, kind, rows, groupBy)
		n := s.eng.addOp(name, a, 1200, 1)
		if groupBy != nil {
			n.Shardable = &graph.ShardSpec{
				Ins: 1,
				Key: func(_ int, e stream.Element) int64 { return groupBy(e) },
				New: func(i int) op.Operator {
					return op.NewCountWindowAgg(fmt.Sprintf("%s#%d", name, i), kind, rows, groupBy)
				},
			}
		}
		s.eng.g.Connect(s.node, n, 0)
		return n
	})
	return s.eng.stream(n)
}

// Join appends a symmetric hash equi-join (on Key) between s and other
// over a sliding time window. A nil merge keeps the key, stamps the later
// timestamp and sums the payloads.
func (s *Stream) Join(name string, other *Stream, window time.Duration, merge func(l, r Element) Element) *Stream {
	s.mustShareEngine(other)
	params := fmt.Sprintf("join|%s|w=%d|m=%t", name, int64(window), merge != nil)
	n := s.eng.place(params, fpIns(s, other), func() *graph.Node {
		j := op.NewSHJ(name, int64(window), merge)
		n := s.eng.addOp(name, j, 2000, 1)
		// An equi-join partitions by its join key on both inputs: matching
		// tuples always land in the same shard.
		n.Shardable = &graph.ShardSpec{
			Ins: 2,
			Key: func(_ int, e stream.Element) int64 { return e.Key },
			New: func(i int) op.Operator {
				return op.NewSHJ(fmt.Sprintf("%s#%d", name, i), int64(window), merge)
			},
		}
		s.eng.g.Connect(s.node, n, 0)
		s.eng.g.Connect(other.node, n, 1)
		return n
	})
	return s.eng.stream(n)
}

// JoinNested appends a symmetric nested-loops theta join between s and
// other over a sliding time window; a nil pred matches on key equality.
func (s *Stream) JoinNested(name string, other *Stream, window time.Duration, pred func(l, r Element) bool, merge func(l, r Element) Element) *Stream {
	s.mustShareEngine(other)
	params := fmt.Sprintf("joinnested|%s|w=%d|p=%t|m=%t", name, int64(window), pred != nil, merge != nil)
	n := s.eng.place(params, fpIns(s, other), func() *graph.Node {
		j := op.NewSNJ(name, int64(window), pred, merge)
		n := s.eng.addOp(name, j, 5000, 1)
		s.eng.g.Connect(s.node, n, 0)
		s.eng.g.Connect(other.node, n, 1)
		return n
	})
	return s.eng.stream(n)
}

// JoinMany appends an n-way symmetric hash join over s and the others.
func (s *Stream) JoinMany(name string, window time.Duration, others ...*Stream) *Stream {
	if len(others) == 0 {
		panic("hmts: JoinMany needs at least one other stream")
	}
	for _, o := range others {
		s.mustShareEngine(o)
	}
	all := append([]*Stream{s}, others...)
	params := fmt.Sprintf("joinmany|%s|n=%d|w=%d", name, len(all), int64(window))
	n := s.eng.place(params, fpIns(all...), func() *graph.Node {
		j := op.NewMJoin(name, 1+len(others), int64(window), nil)
		n := s.eng.addOp(name, j, 3000, 1)
		s.eng.g.Connect(s.node, n, 0)
		for i, o := range others {
			s.mustShareEngine(o)
			s.eng.g.Connect(o.node, n, i+1)
		}
		return n
	})
	return s.eng.stream(n)
}

// Union appends a stream merge of s and the others.
func (s *Stream) Union(name string, others ...*Stream) *Stream {
	for _, o := range others {
		s.mustShareEngine(o)
	}
	all := append([]*Stream{s}, others...)
	params := fmt.Sprintf("union|%s|n=%d", name, len(all))
	n := s.eng.place(params, fpIns(all...), func() *graph.Node {
		u := op.NewUnion(name, 1+len(others))
		n := s.eng.addOp(name, u, 100, 1)
		s.eng.g.Connect(s.node, n, 0)
		for i, o := range others {
			s.mustShareEngine(o)
			s.eng.g.Connect(o.node, n, i+1)
		}
		return n
	})
	return s.eng.stream(n)
}

// Distinct appends window-bounded duplicate elimination on Key.
func (s *Stream) Distinct(name string, window time.Duration) *Stream {
	params := fmt.Sprintf("distinct|%s|w=%d", name, int64(window))
	n := s.eng.place(params, fpIns(s), func() *graph.Node {
		d := op.NewDistinct(name, int64(window))
		n := s.eng.addOp(name, d, 500, 0.9)
		n.Shardable = &graph.ShardSpec{
			Ins: 1,
			Key: func(_ int, e stream.Element) int64 { return e.Key },
			New: func(i int) op.Operator {
				return op.NewDistinct(fmt.Sprintf("%s#%d", name, i), int64(window))
			},
		}
		s.eng.g.Connect(s.node, n, 0)
		return n
	})
	return s.eng.stream(n)
}

// Shard rewrites the stream's producing operator into n key-partitioned
// replicas between a hash split and an order-restoring merge, so a hot
// stateful operator scales across threads while its merged output stays
// byte-identical to the unsharded plan (TopK excepted: each shard tracks
// its own top k). Only keyed operators shard — grouped Aggregate /
// AggregateRows, Distinct, TopK and Join; Shard panics on anything else
// (including whole-stream aggregates, whose single group cannot be
// partitioned). The replica count can be changed later, even while
// running, with Engine.Reshard using the operator's name. The returned
// stream is the merge's output; build downstream operators on it as usual.
// A shard region is always private to its standing query: inside an
// AddQuery registration, sharding an operator another registered query
// shares is refused (register the sharded query first, or let prefixes
// diverge before the region), and the region's name is qualified with the
// query name when it would collide with an existing region, keeping
// Engine.Reshard and the autoscaler unambiguous.
func (s *Stream) Shard(n int) *Stream {
	e := s.eng
	if q := e.curQuery; q != nil {
		if e.refs[s.node.ID] > 1 {
			panic(fmt.Sprintf("hmts: Shard of %q, which is shared with another standing query; a shard region has one owner", s.node.Name))
		}
		if e.g.ShardGroup(s.node.Name) != nil {
			s.node.Name = s.node.Name + "@" + q.name
		}
	}
	gr, err := e.g.ApplyShard(s.node, n)
	if err != nil {
		panic("hmts: " + err.Error())
	}
	if q := e.curQuery; q != nil {
		q.adoptRegion(e, gr, s.node.ID)
	}
	return e.stream(gr.Merge)
}

// Reorder appends a k-slack event-time repair buffer: elements are
// released in nondecreasing timestamp order as long as their disorder does
// not exceed slack. Use it downstream of Union when order-sensitive
// operators follow, so results stay identical under every threading mode.
func (s *Stream) Reorder(name string, slack time.Duration) *Stream {
	params := fmt.Sprintf("reorder|%s|s=%d", name, int64(slack))
	n := s.eng.place(params, fpIns(s), func() *graph.Node {
		r := op.NewReorder(name, int64(slack))
		n := s.eng.addOp(name, r, 400, 1)
		s.eng.g.Connect(s.node, n, 0)
		return n
	})
	return s.eng.stream(n)
}

// TopK appends a sliding-window heavy-hitters tracker: an element is
// emitted whenever a key enters the current top-k by in-window frequency
// (Key = the key, Val = its count).
func (s *Stream) TopK(name string, k int, window time.Duration) *Stream {
	params := fmt.Sprintf("topk|%s|k=%d|w=%d", name, k, int64(window))
	n := s.eng.place(params, fpIns(s), func() *graph.Node {
		t := op.NewTopK(name, k, int64(window))
		n := s.eng.addOp(name, t, 1000, 0.05)
		// Sharded TopK tracks the top k per shard (a union of partition
		// top-k's), not a global top-k — a superset of the global answer.
		n.Shardable = &graph.ShardSpec{
			Ins: 1,
			Key: func(_ int, e stream.Element) int64 { return e.Key },
			New: func(i int) op.Operator {
				return op.NewTopK(fmt.Sprintf("%s#%d", name, i), k, int64(window))
			},
		}
		s.eng.g.Connect(s.node, n, 0)
		return n
	})
	return s.eng.stream(n)
}

// Throttle appends deterministic event-time load shedding: at most rateHz
// elements per second of stream time pass, with bursts up to burst
// elements; the excess is dropped.
func (s *Stream) Throttle(name string, rateHz, burst float64) *Stream {
	params := fmt.Sprintf("throttle|%s|r=%g|b=%g", name, rateHz, burst)
	n := s.eng.place(params, fpIns(s), func() *graph.Node {
		t := op.NewThrottle(name, rateHz, burst)
		n := s.eng.addOp(name, t, 100, 0.5)
		s.eng.g.Connect(s.node, n, 0)
		return n
	})
	return s.eng.stream(n)
}

// Sample appends seeded Bernoulli sampling with pass probability p.
func (s *Stream) Sample(name string, p float64, seed uint64) *Stream {
	params := fmt.Sprintf("sample|%s|p=%g|seed=%d", name, p, seed)
	n := s.eng.place(params, fpIns(s), func() *graph.Node {
		sm := op.NewSample(name, p, seed)
		n := s.eng.addOp(name, sm, 150, p)
		s.eng.g.Connect(s.node, n, 0)
		return n
	})
	return s.eng.stream(n)
}

// Collect terminates the stream in a collecting sink that stores every
// result.
func (s *Stream) Collect(name string) *Collector {
	c := op.NewCollector(1)
	n := s.eng.placeSink(s.eng.g.AddSink(name, c))
	s.eng.g.Connect(s.node, n, 0)
	return &Collector{c: c}
}

// CountSink terminates the stream in a counting sink.
func (s *Stream) CountSink(name string) *Counter {
	c := op.NewCounter(1)
	n := s.eng.placeSink(s.eng.g.AddSink(name, c))
	s.eng.g.Connect(s.node, n, 0)
	return &Counter{c: c}
}

// Sink is a user-provided stream consumer: Process receives each result on
// the given input port and Done signals end of stream on that port.
// Implementations must be safe for concurrent calls when the query runs
// under a multi-threaded mode.
//
// Inside the engine results travel in batches. A sink that also has
// ProcessBatch(port int, es []Element) receives them that way, with no
// per-element call. Batch boundaries carry no meaning — the same results
// may arrive cut differently from run to run — so the sink must treat a
// batch exactly as the same elements one by one, in order. It must not
// retain or mutate es after returning: the caller reuses the slice. A sink
// without ProcessBatch gets one Process call per element.
type Sink interface {
	Process(port int, e Element)
	Done(port int)
}

// elementSink adapts a Sink without ProcessBatch to the engine's batch
// path: it is the one place the engine delivers element by element.
type elementSink struct{ Sink }

// ProcessBatch hands the batch to Process one element at a time.
func (s elementSink) ProcessBatch(port int, es []Element) {
	for _, e := range es {
		s.Process(port, e)
	}
}

// adaptSink returns the engine-side view of a user sink: the sink itself
// when it takes batches, a per-element loop around it otherwise.
func adaptSink(s Sink) op.Sink {
	if bs, ok := s.(op.Sink); ok {
		return bs
	}
	return elementSink{s}
}

// Into terminates the stream in a caller-provided sink (for example a
// network writer).
func (s *Stream) Into(name string, sink Sink) {
	n := s.eng.placeSink(s.eng.g.AddSink(name, adaptSink(sink)))
	s.eng.g.Connect(s.node, n, 0)
}

// Discard terminates the stream in a sink that drops everything (load
// benches).
func (s *Stream) Discard(name string) *Waiter {
	nl := op.NewNull(1)
	n := s.eng.placeSink(s.eng.g.AddSink(name, nl))
	s.eng.g.Connect(s.node, n, 0)
	return &Waiter{w: nl}
}

func (s *Stream) mustShareEngine(o *Stream) {
	if o.eng != s.eng {
		panic(fmt.Sprintf("hmts: streams from different engines combined (%p vs %p)", s.eng, o.eng))
	}
}

// Collector is the public handle of a collecting sink.
type Collector struct{ c *op.Collector }

// Wait blocks until the stream feeding the collector has ended.
func (c *Collector) Wait() { c.c.Wait() }

// Elements returns a copy of the collected results so far.
func (c *Collector) Elements() []Element { return c.c.Elements() }

// Len returns the number of collected results so far.
func (c *Collector) Len() int { return c.c.Len() }

// Counter is the public handle of a counting sink.
type Counter struct{ c *op.Counter }

// Wait blocks until the stream feeding the counter has ended.
func (c *Counter) Wait() { c.c.Wait() }

// Count returns the number of results so far.
func (c *Counter) Count() uint64 { return c.c.Count() }

// Waiter is the public handle of a discarding sink.
type Waiter struct{ w *op.Null }

// Wait blocks until the stream feeding the sink has ended.
func (w *Waiter) Wait() { w.w.Wait() }
