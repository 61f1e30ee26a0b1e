package sched

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/queue"
	"github.com/dsms/hmts/internal/stream"
)

// Deployment is a running realization of a query graph under a plan: the
// queues created on cut edges, the DI wiring between them, the autonomous
// source goroutines and the level-2/level-3 executors. It supports runtime
// adaptation: regrouping executors (e.g. switching OTS ↔ GTS, paper
// §4.2.2) and re-cutting the graph (inserting and removing queues, §5.1.3).
type Deployment struct {
	g    *graph.Graph
	opts Options
	ts   *TS

	// world serializes structural changes against data flow: sources and
	// executors hold it for reading around every push/drain; Splice holds
	// it for writing.
	world sync.RWMutex

	// quiesce is the abort signal of a source parked on a full queue with
	// its world read lock held. Splice closes it before taking the write
	// lock — so each parked delivery completes past its bound and unlocks
	// — and re-arms it under the lock; sources read it under their read
	// lock.
	quiesce chan struct{}

	// admin serializes management operations (Stop, Splice, accessor
	// snapshots) against each other — a fail-stop triggered by an
	// operator panic runs Stop concurrently with whatever the caller is
	// doing.
	admin   sync.Mutex
	execGen int

	// single remembers whether the last analyze ran with SingleGroup (GTS)
	// so a splice can re-analyze without changing the threading
	// discipline.
	single bool

	cut      map[graph.EdgeKey]bool
	comps    [][]int
	voOf     map[int]int
	gates    []*Gate
	queues   map[graph.EdgeKey]*queue.Queue
	units    map[int][]*Unit // VO index -> entry units
	groupOf  []int           // VO index -> executor group
	execs    []*Exec
	execOf   map[int]*Exec       // executor group -> executor
	adapters map[int]*srcAdapter // source node ID -> adapter

	// spliceGid is the goroutine id of a Splice in progress (0 otherwise);
	// the wait hooks let that goroutine push past queue bounds instead of
	// parking, since everything else is halted or quiesced during the
	// splice and nothing could free space.
	spliceGid atomic.Int64

	// reshardOverheadNS / reshardPerRowNS model the stop-the-world pause
	// a live Reshard costs: a fixed splice overhead plus a per-retained-row
	// state-handoff cost. Seeded with defaults and EWMA-updated from every
	// measured Splice (see pausemodel.go); read lock-free by
	// ReshardPauseEstimateNS so a planner can veto an expensive migration.
	reshardOverheadNS atomic.Int64
	reshardPerRowNS   atomic.Int64

	started bool
	stopped atomic.Bool
	srcWG   sync.WaitGroup

	errMu sync.Mutex
	err   error
}

// srcTarget is one resolved output edge of a source.
type srcTarget struct {
	sink op.Sink
	port int
	gate *Gate
}

// srcAdapter is the Sink handed to a source's Run; it fans elements out to
// the source's resolved targets under the world read lock, so a splice
// (which holds the write lock) never runs inside a delivery. The read lock
// is held for the whole fan-out, a park on a full queue included: a splice
// first closes the quiesce channel, which aborts such a park (see coop.go).
type srcAdapter struct {
	d        *Deployment
	targets  []srcTarget
	finished atomic.Bool
}

// ProcessBatch implements op.Sink: a bursting source hands a whole burst
// over in one call, and each target (notably the decoupling queue)
// receives it under a single lock acquisition instead of one per element.
func (a *srcAdapter) ProcessBatch(_ int, es []stream.Element) {
	a.d.world.RLock()
	defer a.d.world.RUnlock()
	for i := range a.targets {
		a.targets[i].processBatch(es)
	}
}

// Done implements op.Sink.
func (a *srcAdapter) Done(int) {
	a.d.world.RLock()
	defer a.d.world.RUnlock()
	a.finished.Store(true)
	for i := range a.targets {
		a.targets[i].done()
	}
}

// The deliveries below hold the target's VO gate, if any, and release it
// via defer so that a panicking operator cannot leak it. A contended gate
// is waited for with the world read lock held: its holder is a source or
// an executor inside a delivery, which a splice aborts (quiesce, halt)
// before it takes the write lock.

func (t *srcTarget) processBatch(es []stream.Element) {
	if t.gate != nil {
		t.gate.Lock()
		defer t.gate.Unlock()
	}
	t.sink.ProcessBatch(t.port, es)
}

func (t *srcTarget) done() {
	if t.gate != nil {
		t.gate.Lock()
		defer t.gate.Unlock()
	}
	t.sink.Done(t.port)
}

// Build validates the graph against the plan and constructs a deployment.
// Nothing runs until Start.
func Build(g *graph.Graph, plan Plan, opts Options) (*Deployment, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cut, err := planCut(g, plan)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		g:        g,
		opts:     opts,
		cut:      cut,
		queues:   make(map[graph.EdgeKey]*queue.Queue),
		adapters: make(map[int]*srcAdapter),
		quiesce:  make(chan struct{}),
	}
	if opts.TS != nil {
		maxc := opts.TS.MaxConcurrent
		if maxc < 1 {
			maxc = runtime.GOMAXPROCS(0)
		}
		age := opts.TS.AgePerMS
		if age == 0 {
			age = 1
		}
		d.ts = NewTS(maxc, age)
	}
	if err := d.analyze(plan.Groups, plan.SingleGroup); err != nil {
		return nil, err
	}
	for _, n := range g.Sources() {
		d.adapters[n.ID] = &srcAdapter{d: d}
	}
	for _, e := range g.Edges() {
		d.wire(e, cut[e.Key()], false)
	}
	d.rebuild()
	return d, nil
}

// planCut returns the edges a plan cuts: its own cut edges plus every
// shard region's internal edges, which are cut whatever the plan says —
// fusing split→replica or replica→merge edges into one VO would run the
// replicas serially and defeat the data parallelism. Sink edges always
// use DI.
func planCut(g *graph.Graph, plan Plan) (map[graph.EdgeKey]bool, error) {
	cut := make(map[graph.EdgeKey]bool)
	for k, v := range plan.Cut {
		if v {
			cut[k] = true
		}
	}
	for k := range g.MustCut() {
		cut[k] = true
	}
	for k := range cut {
		if g.Node(k.To).Kind == graph.KindSink {
			return nil, fmt.Errorf("sched: cut edge %v targets a sink; sink edges always use DI", k)
		}
	}
	return cut, nil
}

// analyze computes VOs, executor groups and gates from the current cut.
// A grouping that does not fit the VOs is an error and changes nothing.
func (d *Deployment) analyze(groups [][]int, single bool) error {
	comps := d.g.Components(d.cut)
	voOf := make(map[int]int)
	for vi, comp := range comps {
		for _, id := range comp {
			voOf[id] = vi
		}
	}
	// Executor groups.
	groupOf := make([]int, len(comps))
	for i := range groupOf {
		groupOf[i] = -1
	}
	next := 0
	switch {
	case single:
		for i := range groupOf {
			groupOf[i] = 0
		}
	case groups != nil:
		for gi, ids := range groups {
			for _, id := range ids {
				vi, ok := voOf[id]
				if !ok {
					return fmt.Errorf("sched: grouped node %d is a sink or unknown", id)
				}
				if groupOf[vi] != -1 && groupOf[vi] != gi {
					return fmt.Errorf("sched: VO of node %d split across groups %d and %d", id, groupOf[vi], gi)
				}
				groupOf[vi] = gi
			}
		}
		next = len(groups)
	}
	for i := range groupOf {
		if groupOf[i] == -1 {
			groupOf[i] = next
			next++
		}
	}
	d.single, d.comps, d.voOf, d.groupOf = single, comps, voOf, groupOf

	// Gates: a VO needs entry serialization when it can have more than
	// one driver — several fused sources, or a fused source plus an
	// executor draining its entry queues.
	nSrc := make([]int, len(d.comps))
	hasEntry := make([]bool, len(d.comps))
	for vi, comp := range d.comps {
		for _, id := range comp {
			if d.g.Node(id).Kind == graph.KindSource {
				nSrc[vi]++
			}
		}
	}
	for _, e := range d.g.Edges() {
		if d.cut[e.Key()] {
			hasEntry[d.voOf[e.To]] = true
		}
	}
	d.gates = make([]*Gate, len(d.comps))
	for vi := range d.comps {
		if nSrc[vi] >= 2 || (nSrc[vi] >= 1 && hasEntry[vi]) {
			d.gates[vi] = NewGate()
		}
	}
	return nil
}

// fail records the first failure and fail-stops the deployment: sources
// are stopped and executors halt. Queued elements are abandoned — a
// panicking operator has violated its contract and its partition's state
// is suspect.
func (d *Deployment) fail(err error) {
	d.errMu.Lock()
	first := d.err == nil
	if first {
		d.err = err
	}
	d.errMu.Unlock()
	if first {
		go d.Stop()
	}
}

// Err returns the first operator failure observed, or nil.
func (d *Deployment) Err() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// buildExecs creates one executor per group that owns at least one queue.
func (d *Deployment) buildExecs() {
	byGroup := make(map[int][]*Unit)
	for vi, us := range d.units {
		gi := d.groupOf[vi]
		byGroup[gi] = append(byGroup[gi], us...)
	}
	groups := make([]int, 0, len(byGroup))
	for gi := range byGroup {
		groups = append(groups, gi)
	}
	sort.Ints(groups)
	d.execGen++
	d.execs = nil
	d.execOf = make(map[int]*Exec, len(groups))
	for _, gi := range groups {
		us := byGroup[gi]
		sort.Slice(us, func(i, j int) bool { return us[i].Q.Name() < us[j].Q.Name() })
		prio := d.opts.Priority[gi]
		x := newExec(fmt.Sprintf("exec-g%d", gi), us, d.opts.strategyFor(gi), d.opts.batch(), d.opts.quantum(), d.ts, prio, &d.world, d.fail)
		d.execs = append(d.execs, x)
		d.execOf[gi] = x
	}
	d.wireHooks()
}

// wireHooks installs a cooperative-blocking hook on every decoupling
// queue, bound to the queue's producing side: the executor of the group
// that drains the producing partition when there is one, otherwise the
// source goroutines pushing directly (see coop.go). Re-run after every
// buildExecs, since a splice moves group assignments; no producer is
// parked across a splice, so no stale hook survives one.
func (d *Deployment) wireHooks() {
	for k, q := range d.queues {
		var x *Exec
		if from := d.g.Node(k.From); from.Kind != graph.KindSource {
			x = d.execOf[d.groupOf[d.voOf[k.From]]]
		}
		q.SetWaitHook(&pushHook{d: d, x: x})
	}
}

// Start launches source goroutines and executors. It panics if called
// twice.
func (d *Deployment) Start() {
	if d.started {
		panic("sched: deployment started twice")
	}
	d.started = true
	for _, x := range d.execs {
		x.start()
	}
	for _, n := range d.g.Sources() {
		a := d.adapters[n.ID]
		src := n.Src
		d.srcWG.Add(1)
		go func() {
			defer d.srcWG.Done()
			defer func() {
				if r := recover(); r != nil {
					d.fail(fmt.Errorf("sched: operator panic in source thread %s: %v", src.Name(), r))
				}
			}()
			src.Run(a, 0)
		}()
	}
}

// Wait blocks until every source has finished and every executor has
// drained its queues to completion. It tolerates concurrent regrouping:
// if the executor set changed while waiting, it waits for the new set too.
func (d *Deployment) Wait() {
	for {
		d.admin.Lock()
		gen := d.execGen
		execs := append([]*Exec(nil), d.execs...)
		d.admin.Unlock()
		d.srcWG.Wait()
		for _, x := range execs {
			x.wait()
		}
		d.admin.Lock()
		same := gen == d.execGen
		d.admin.Unlock()
		if same {
			return
		}
	}
}

// Stop aborts processing: sources are asked to stop, queues are poisoned
// so producers blocked on backpressure are released, and executors halt
// after their current batch. Queued elements may remain unprocessed or be
// dropped.
func (d *Deployment) Stop() {
	if d.stopped.Swap(true) {
		return
	}
	d.admin.Lock()
	defer d.admin.Unlock()
	for _, n := range d.g.Sources() {
		n.Src.Stop()
	}
	for _, q := range d.queues {
		q.Poison()
	}
	for _, x := range d.execs {
		x.halt()
	}
	d.srcWG.Wait()
}

// Queues returns the live decoupling queues in deterministic order; the
// experiment harness attaches its memory sampler to them.
func (d *Deployment) Queues() []*queue.Queue {
	d.admin.Lock()
	defer d.admin.Unlock()
	keys := make([]graph.EdgeKey, 0, len(d.queues))
	for k := range d.queues {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.ToPort < b.ToPort
	})
	out := make([]*queue.Queue, len(keys))
	for i, k := range keys {
		out[i] = d.queues[k]
	}
	return out
}

// Cut returns a copy of the current cut set (the edges carrying queues).
func (d *Deployment) Cut() map[graph.EdgeKey]bool {
	d.admin.Lock()
	defer d.admin.Unlock()
	out := make(map[graph.EdgeKey]bool, len(d.cut))
	for k, v := range d.cut {
		if v {
			out[k] = true
		}
	}
	return out
}

// Queue returns the queue on the given cut edge, or nil.
func (d *Deployment) Queue(k graph.EdgeKey) *queue.Queue {
	d.admin.Lock()
	defer d.admin.Unlock()
	return d.queues[k]
}

// Execs returns the current executors.
func (d *Deployment) Execs() []*Exec {
	d.admin.Lock()
	defer d.admin.Unlock()
	return append([]*Exec(nil), d.execs...)
}

// TS returns the level-3 thread scheduler, or nil if level 3 is disabled.
func (d *Deployment) TS() *TS { return d.ts }

// VOs returns the node-ID sets of the current virtual operators.
func (d *Deployment) VOs() [][]int {
	d.admin.Lock()
	defer d.admin.Unlock()
	out := make([][]int, len(d.comps))
	for i, c := range d.comps {
		out[i] = append([]int(nil), c...)
	}
	return out
}
