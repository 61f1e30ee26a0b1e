package hmts

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/sched"
)

// This file implements runtime multi-query registration with
// common-prefix subsumption: Engine.AddQuery merges a new standing
// query's plan into the (possibly live) graph at the longest shared
// prefix — operators whose canonical fingerprint (kind, parameters,
// upstream fingerprints; see graph/subsume.go) matches an operator of an
// already-registered query are reused and refcounted instead of
// duplicated, and the plan fans out at the divergence point. DropQuery
// decrements the refcounts and prunes the suffix the dropped query owned
// exclusively, draining in-flight elements into the dying sink first.
//
// Sharing is opt-in per registration: only operators built inside an
// AddQuery closure participate, and they only unify with operators of
// other registered queries. Plain builder calls outside AddQuery never
// share (several tests and examples legitimately reuse operator names
// for distinct predicates). Within AddQuery, the operator name is part
// of the canonical identity — equal names passed to the same builder
// method with equal structural parameters must mean equal behavior, the
// contract ql.Plan upholds by deriving names from expression strings.

// queryReg is one registered standing query.
type queryReg struct {
	name string
	seq  int // registration order, for stable metrics listing
	tap  *queryTap
	// used marks the operator node IDs this query references (shared or
	// private); nodes lists them in plan order.
	used  map[int]bool
	nodes []int
	// sinks are the query's private sink node IDs (the tap's node, plus
	// any sinks the build closure attached). Sinks never share.
	sinks []int
	// regions are the shard regions this query owns. A SHARD region is
	// always private to its query: prefix sharing ends at the region
	// boundary, so Reshard and the autoscaler keep their one-owner
	// semantics.
	regions []*graph.ShardGroup
}

func (q *queryReg) use(e *Engine, n *graph.Node) {
	if q.used[n.ID] {
		return
	}
	q.used[n.ID] = true
	q.nodes = append(q.nodes, n.ID)
	e.refs[n.ID]++
}

func (q *queryReg) adoptRegion(e *Engine, gr *graph.ShardGroup, replaced int) {
	if q.used[replaced] {
		delete(q.used, replaced)
		delete(e.refs, replaced)
		for i, id := range q.nodes {
			if id == replaced {
				q.nodes = append(q.nodes[:i], q.nodes[i+1:]...)
				break
			}
		}
	}
	q.regions = append(q.regions, gr)
}

// regionNodeIDs expands the query's regions to their current member
// nodes. Evaluated at drop time, not registration time: a live Reshard
// replaces replica nodes.
func (q *queryReg) regionNodeIDs() []int {
	var ids []int
	for _, gr := range q.regions {
		ids = append(ids, gr.Split.ID)
		for _, rn := range gr.Replicas {
			ids = append(ids, rn.ID)
		}
		ids = append(ids, gr.Merge.ID)
	}
	return ids
}

// queryTap wraps a query's user sink: it meters delivered results for the
// per-query metrics section and dedups end-of-stream, so DropQuery can
// force a final Done on a sink whose stream was severed mid-flight.
type queryTap struct {
	inner   op.Sink
	out     atomic.Uint64
	firstNS atomic.Int64
	lastNS  atomic.Int64
	done    atomic.Bool
}

func (t *queryTap) meter(n int) {
	now := time.Now().UnixNano()
	t.firstNS.CompareAndSwap(0, now)
	t.lastNS.Store(now)
	t.out.Add(uint64(n))
}

// ProcessBatch implements op.Sink.
func (t *queryTap) ProcessBatch(port int, es []Element) {
	t.meter(len(es))
	t.inner.ProcessBatch(port, es)
}

// Done implements op.Sink.
func (t *queryTap) Done(port int) {
	if !t.done.Swap(true) {
		t.inner.Done(port)
	}
}

func (t *queryTap) forceDone() { t.Done(0) }

// place routes operator creation through the multi-query sharing layer.
// Outside a registration it just builds. Inside one, it first looks for
// an operator of an already-registered query with the same canonical
// fingerprint and exact upstream wiring; on a hit the existing node is
// refcounted and reused, otherwise build runs and the new node is
// fingerprinted and owned. build must create the node and connect
// exactly the edges described by ins.
func (e *Engine) place(params string, ins []graph.FPIn, build func() *graph.Node) *graph.Node {
	q := e.curQuery
	if q == nil {
		return build()
	}
	fp := e.g.FPOf(params, ins)
	if n := e.g.FindFP(fp, params, ins); n != nil && e.refs[n.ID] > 0 {
		q.use(e, n)
		return n
	}
	n := build()
	e.g.SetFP(n, params, fp)
	q.use(e, n)
	return n
}

// placeSink records sink nodes created during a registration so DropQuery
// can prune them; sinks are always private.
func (e *Engine) placeSink(n *graph.Node) *graph.Node {
	if q := e.curQuery; q != nil {
		q.sinks = append(q.sinks, n.ID)
	}
	return n
}

// AddQuery registers a standing query under a unique name: build
// constructs the query's plan with the usual builder methods (or
// ql.Plan) and returns its result stream, and sink receives the query's
// results. Operators identical to those of already-registered queries —
// same builder method, same name and parameters, same upstream chain —
// are shared rather than duplicated, so the Nth similar query costs only
// its divergent operators.
//
// On a running engine the new plan is spliced in live under the same
// discipline as Reconfigure: executors pause, the suffix is wired (with
// bounded queues where the current mode dictates), and processing
// resumes — no restart, and under Block-policy bounded queues no
// elements are dropped. Live registrations may only read from sources
// that already exist. A query whose upstream has already reached
// end-of-stream completes immediately.
func (e *Engine) AddQuery(name string, sink Sink, build func() (*Stream, error)) error {
	if name == "" {
		return fmt.Errorf("hmts: AddQuery needs a name")
	}
	if sink == nil || build == nil {
		return fmt.Errorf("hmts: AddQuery %q needs a sink and a build function", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.queries == nil {
		e.queries = make(map[string]*queryReg)
		e.refs = make(map[int]int)
	}
	if _, dup := e.queries[name]; dup {
		return fmt.Errorf("hmts: query %q already registered", name)
	}
	reg := &queryReg{name: name, seq: e.nextQSeq, tap: &queryTap{inner: adaptSink(sink)}, used: make(map[int]bool)}

	doBuild := func() error {
		e.curQuery = reg
		defer func() { e.curQuery = nil }()
		st, err := build()
		if err != nil {
			return err
		}
		if st == nil {
			return fmt.Errorf("hmts: query %q built a nil stream", name)
		}
		if st.eng != e {
			return fmt.Errorf("hmts: query %q built on a different engine", name)
		}
		sn := e.g.AddSink(name, reg.tap)
		e.g.Connect(st.node, sn, 0)
		reg.sinks = append(reg.sinks, sn.ID)
		return nil
	}

	span := e.g.IDSpan()
	// A registered query must read from sources that already exist on the
	// engine — it cannot bring its own (two registrations could then never
	// share a prefix, and a live splice has no way to start a new source
	// goroutine). checkSources rejects a build that created one; the
	// rollback sweep removes such nodes along with the created operators.
	// Only the ID range the build appended is scanned — a registration's
	// cost must stay proportional to its divergent suffix, not to the
	// number of queries already standing.
	checkSources := func() error {
		for id, hi := span, e.g.IDSpan(); id < hi; id++ {
			n := e.g.NodeOrNil(id)
			if n != nil && n.Kind == graph.KindSource {
				err := fmt.Errorf("hmts: query %q creates source %q inside AddQuery; register sources on the engine first and reference their streams", name, n.Name)
				e.rollbackQuery(reg, span)
				return err
			}
		}
		return nil
	}

	if e.d == nil {
		if err := doBuild(); err != nil {
			e.rollbackQuery(reg, span)
			return err
		}
		if err := checkSources(); err != nil {
			return err
		}
	} else {
		err := e.d.Splice(func(sp *sched.Splicer) error {
			if err := doBuild(); err != nil {
				e.rollbackQuery(reg, span)
				return err
			}
			if err := checkSources(); err != nil {
				return err
			}
			// Every edge the build added touches a node in the appended ID
			// range: in-edges of new nodes cover old→new and new→new, and
			// the out-edge sweep catches a new producer wired into an old
			// target. Walking that range instead of the whole edge set
			// keeps a live registration O(divergent suffix).
			mc := e.g.MustCut()
			for id, hi := span, e.g.IDSpan(); id < hi; id++ {
				if e.g.NodeOrNil(id) == nil {
					continue
				}
				for _, ed := range e.g.InEdges(id) {
					sp.AddEdge(ed, e.cutNewEdge(sp, ed, span, mc))
				}
				for _, ed := range e.g.OutEdges(id) {
					if ed.To < span {
						sp.AddEdge(ed, e.cutNewEdge(sp, ed, span, mc))
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	e.queries[name] = reg
	e.nextQSeq++
	return nil
}

// cutNewEdge decides whether a freshly spliced-in edge gets a decoupling
// queue: shard-region internals always do; a new fan-out edge from a
// source mirrors the placement of the source's existing edges; divergent
// operator→operator edges follow the mode's discipline — a queue per edge
// under GTS/OTS, fused into the upstream VO otherwise (a later Rebalance
// re-places them from measured stats).
func (e *Engine) cutNewEdge(sp *sched.Splicer, ed graph.Edge, span int, mustCut map[graph.EdgeKey]bool) bool {
	to := e.g.Node(ed.To)
	if to.Kind == graph.KindSink {
		return false
	}
	if mustCut[ed.Key()] {
		return true
	}
	from := e.g.Node(ed.From)
	if from.Kind == graph.KindSource {
		sibling := false
		for _, o := range e.g.OutEdges(from.ID) {
			if o == ed || o.To >= span {
				continue
			}
			sibling = true
			if sp.HasCut(o.Key()) {
				return true
			}
		}
		if sibling {
			return false
		}
		return e.cfg.Mode != ModePureDI
	}
	return e.cfg.Mode == ModeGTS || e.cfg.Mode == ModeOTS
}

// rollbackQuery undoes a failed registration: shared refcounts are
// released, the nodes the aborted build created are pruned, and any
// source nodes the build added (IDs at or past span) are swept once
// their consumers are gone. Safe both before deployment and inside a
// live splice — a failed build has mutated only the graph, never the
// deployment's queues or subscriptions.
func (e *Engine) rollbackQuery(reg *queryReg, span int) {
	var created []int
	for _, id := range reg.nodes {
		e.refs[id]--
		if e.refs[id] <= 0 {
			delete(e.refs, id)
			created = append(created, id)
		}
	}
	e.pruneGraph(append(created, append(reg.regionNodeIDs(), reg.sinks...)...), reg.regions)
	for _, n := range e.g.Nodes() {
		if n.ID >= span && n.Kind == graph.KindSource {
			e.g.RemoveNode(n)
		}
	}
}

// pruneGraph removes a set of exclusively-owned nodes from the graph:
// every in-edge of a pruned node is disconnected (an out-edge of a
// pruned node always targets another pruned node — shared operators
// never hang downstream of private ones), then the nodes and any owned
// shard regions are dropped.
func (e *Engine) pruneGraph(ids []int, regions []*graph.ShardGroup) {
	for _, id := range ids {
		for _, ed := range append([]graph.Edge(nil), e.g.InEdges(id)...) {
			e.g.Disconnect(ed)
		}
	}
	for _, id := range ids {
		e.g.RemoveNode(e.g.Node(id))
	}
	for _, gr := range regions {
		if err := e.g.DropShardGroup(gr); err != nil {
			panic("hmts: " + err.Error())
		}
	}
}

// DropQuery removes a standing query registered with AddQuery. Operators
// shared with other queries survive (their refcount drops); the suffix
// only this query used — divergence point to sink, including any shard
// region — is pruned. On a running engine the removal is a live splice:
// elements already queued for the dying suffix are drained into its sink
// before the queues are retired, the suffix's subscriptions are severed
// at the divergence point, and the sink receives a final Done.
func (e *Engine) DropQuery(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	reg := e.queries[name]
	if reg == nil {
		return fmt.Errorf("hmts: no query %q", name)
	}

	// The pruned set: nodes whose only remaining user is this query, plus
	// the query's sinks and shard-region members (always private).
	prunedSet := make(map[int]bool)
	for _, id := range reg.nodes {
		if e.refs[id] == 1 {
			prunedSet[id] = true
		}
	}
	for _, id := range reg.regionNodeIDs() {
		prunedSet[id] = true
	}
	for _, id := range reg.sinks {
		prunedSet[id] = true
	}
	pruned := make([]int, 0, len(prunedSet))
	for id := range prunedSet {
		pruned = append(pruned, id)
	}
	sort.Ints(pruned)

	if e.d == nil {
		e.pruneGraph(pruned, reg.regions)
	} else {
		err := e.d.Splice(func(sp *sched.Splicer) error {
			order, err := e.g.TopoOrder()
			if err != nil {
				return err
			}
			// Retire the suffix upstream-first: draining a node's entry
			// queues pushes its backlog through the still-wired suffix
			// into the dying sink, so accepted elements are processed,
			// not dropped.
			for _, n := range order {
				if !prunedSet[n.ID] {
					continue
				}
				for _, ed := range append([]graph.Edge(nil), e.g.InEdges(n.ID)...) {
					sp.RemoveEdge(ed)
				}
				sp.FlushNode(n)
			}
			for _, id := range pruned {
				e.g.RemoveNode(e.g.Node(id))
			}
			for _, gr := range reg.regions {
				if err := e.g.DropShardGroup(gr); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	for _, id := range reg.nodes {
		e.refs[id]--
		if e.refs[id] <= 0 {
			delete(e.refs, id)
		}
	}
	delete(e.queries, name)
	reg.tap.forceDone()
	return nil
}

// Queries returns the names of the registered standing queries in
// registration order.
func (e *Engine) Queries() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.queryNamesLocked()
}

func (e *Engine) queryNamesLocked() []string {
	names := make([]string, 0, len(e.queries))
	for name := range e.queries {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		return e.queries[names[i]].seq < e.queries[names[j]].seq
	})
	return names
}
