package sched

import (
	"cmp"
	"fmt"
	"time"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/queue"
	"github.com/dsms/hmts/internal/stream"
)

// Splice is the one transaction that mutates a live deployment. Every
// runtime change — the OTS ↔ GTS group switch (SwitchGroups), queue
// insertion and removal (Reconfigure), replica-count changes (Reshard)
// and standing-query registration — is a callback run inside it:
//
//  1. halt every executor (a parked push is aborted and completes past
//     its bound, so each batch finishes);
//  2. quiesce the sources: the quiesce channel, which every source parked
//     on a full queue holds as its abort signal, is closed, so each
//     in-flight delivery completes past its bound and releases the world
//     read lock;
//  3. take the world write lock (sources now wait at their next element),
//     re-arm the quiesce channel and register this goroutine as the
//     splicer, whose own pushes overshoot bounds instead of parking —
//     nothing else could free space;
//  4. run fn, which mutates the graph and re-places edges through the
//     Splicer;
//  5. re-derive VOs, gates, source targets, units and executors from the
//     graph and cut as fn left them;
//  6. restart.
//
// Step 5 runs even when fn fails, so the deployment always resumes in a
// consistent state; fn must leave the graph valid on error. A panic in fn
// fail-stops the deployment and propagates. The elapsed pause feeds the
// pause model (pausemodel.go).
func (d *Deployment) Splice(fn func(sp *Splicer) error) error {
	d.admin.Lock()
	defer d.admin.Unlock()
	if d.stopped.Load() {
		return fmt.Errorf("sched: splice on a stopped deployment")
	}
	t0 := time.Now()
	for _, x := range d.execs {
		x.halt()
	}
	close(d.quiesce)
	d.world.Lock()
	d.quiesce = make(chan struct{})
	d.spliceGid.Store(goid())
	defer func() {
		d.spliceGid.Store(0)
		d.world.Unlock()
		if r := recover(); r != nil {
			// A panicking callback may have left the graph half-mutated:
			// fail-stop instead of restarting over it.
			d.fail(fmt.Errorf("sched: panic in splice: %v", r))
			panic(r)
		}
	}()
	sp := &Splicer{d: d, single: d.single}
	err := fn(sp)
	if aerr := d.analyze(sp.groups, sp.single); aerr != nil {
		// The requested grouping does not fit the new VOs; resume under
		// the default one rather than not at all.
		_ = d.analyze(nil, sp.single)
		err = cmp.Or(err, aerr)
	}
	d.rebuild()
	if d.started {
		for _, x := range d.execs {
			x.start()
		}
	}
	d.observeReshard(time.Since(t0).Nanoseconds(), sp.rows)
	return err
}

// rebuild re-derives everything downstream of the VO analysis: source
// targets, units and executors. Build and Splice end with it.
func (d *Deployment) rebuild() {
	d.rewireTargets()
	d.refreshUnits()
	d.buildExecs()
}

// Splicer is the edge-level wiring interface a Splice callback uses after
// mutating the graph. The graph mutation itself (Connect, node addition
// and removal) is the caller's job; AddEdge and RemoveEdge keep the
// deployment's queues and subscriptions consistent with it.
type Splicer struct {
	d *Deployment
	// groups and single are the executor grouping the transaction
	// re-derives the schedule with; single defaults to the current
	// threading discipline, groups to one group per VO.
	groups [][]int
	single bool
	// rows is the retained state the callback ported, for the pause
	// model.
	rows int
}

// HasCut reports whether the edge currently carries a decoupling queue —
// callers mirror a source's existing placement when wiring a new fan-out
// edge from it.
func (sp *Splicer) HasCut(k graph.EdgeKey) bool { return sp.d.cut[k] }

// AddEdge wires a newly connected graph edge into the live deployment:
// cut edges get a fresh bounded queue, uncut edges a direct subscription.
// If the upstream producer has already completed (a closed operator or a
// finished source), end-of-stream is propagated immediately so the new
// suffix still terminates.
func (sp *Splicer) AddEdge(e graph.Edge, cut bool) { sp.d.wire(e, cut, false) }

// RemoveEdge retires one graph edge from the live deployment and
// disconnects it. A queue on the edge is first drained to completion —
// its elements are delivered downstream, not dropped.
func (sp *Splicer) RemoveEdge(e graph.Edge) {
	sp.d.unwire(e)
	sp.d.g.Disconnect(e)
}

// FlushNode gives a node being pruned a chance to surface internally
// buffered elements (an order-restoring Merge holds a reorder window)
// into its still-attached downstream before its out-edges are retired.
func (sp *Splicer) FlushNode(n *graph.Node) {
	if n.Kind != graph.KindOp {
		return
	}
	if fl, ok := n.Op.(interface{ FlushOpen() }); ok {
		fl.FlushOpen()
	}
}

// regroup sets the executor grouping the transaction re-derives the
// schedule with and, if strategy is non-empty, the executors' strategy.
func (sp *Splicer) regroup(plan Plan, strategy string) {
	sp.groups, sp.single = plan.Groups, plan.SingleGroup
	if strategy != "" {
		sp.d.opts.Strategy = strategy
	}
}

// wire connects graph edge e's producer to its consumer — through a
// fresh bounded queue when cut, directly otherwise — and records the
// placement. A producer that has already completed fired its Done before
// this path existed: the consumer is sent end-of-stream now, unless it
// already saw it on the path being replaced (seen), in which case a new
// queue is born finished.
func (d *Deployment) wire(e graph.Edge, cut, seen bool) {
	from, to := d.g.Node(e.From), d.g.Node(e.To)
	done := d.producerDone(from)
	var target op.Sink = downstreamSink(to)
	port := e.ToPort
	delete(d.cut, e.Key())
	if cut {
		q := queue.New(fmt.Sprintf("q(%s->%s)", from.Name, to.Name), d.opts.QueueBound)
		if done && seen {
			q.Done(0)
			var one [1]stream.Element
			q.DrainBatch(one[:], 1) // closes the queue before its consumer is attached
		}
		q.Subscribe(to.Op, e.ToPort)
		d.queues[e.Key()] = q
		d.cut[e.Key()] = true
		target, port = q, 0
	}
	// Source targets are resolved wholesale by rewireTargets.
	if from.Kind != graph.KindSource {
		if sh, ok := d.g.SplitEdgeShard(e); ok {
			from.Op.(*op.Split).SubscribeShard(sh, e.ToPort, target, port)
		} else {
			from.Op.Subscribe(target, port)
		}
	}
	if done && !seen {
		target.Done(port)
	}
}

// unwire detaches graph edge e's producer from its current target without
// disconnecting the edge. A queue on the edge is drained first — its
// elements and any pending end-of-stream reach the consumer — and then
// retired.
func (d *Deployment) unwire(e graph.Edge) {
	from := d.g.Node(e.From)
	var target op.Sink = downstreamSink(d.g.Node(e.To))
	port := e.ToPort
	if q := d.queues[e.Key()]; q != nil {
		d.drainQueue(q)
		delete(d.queues, e.Key())
		delete(d.cut, e.Key())
		// Nothing references a retired queue any more; poisoning turns a
		// stray push into a counted drop instead of a silent one.
		q.Poison()
		target, port = q, 0
	}
	if from.Kind == graph.KindSource {
		return
	}
	if sh, ok := d.g.SplitEdgeShard(e); ok {
		from.Op.(*op.Split).UnsubscribeShard(sh, e.ToPort)
	} else {
		from.Op.Unsubscribe(target, port)
	}
}

// drainQueue delivers everything queued on q downstream, including a
// pending end-of-stream. Only the splicer calls it, with every other
// producer and consumer quiesced.
func (d *Deployment) drainQueue(q *queue.Queue) {
	scratch := make([]stream.Element, 1024)
	for q.Len() > 0 || (q.InputClosed() && !q.Closed()) {
		q.DrainBatch(scratch, len(scratch))
	}
}

// producerDone reports whether node n has already sent its end-of-stream.
func (d *Deployment) producerDone(n *graph.Node) bool {
	if n.Kind == graph.KindSource {
		return d.adapters[n.ID].finished.Load()
	}
	c, ok := n.Op.(interface{ Closed() bool })
	return ok && c.Closed()
}

// downstreamSink returns the natural DI target of a node.
func downstreamSink(n *graph.Node) op.Sink {
	if n.Kind == graph.KindSink {
		return n.Sink
	}
	return n.Op
}
