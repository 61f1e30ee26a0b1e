package sched

import (
	"fmt"

	"github.com/dsms/hmts/internal/graph"
)

// SwitchGroups re-assigns the existing virtual operators to a new set of
// executor groups at runtime — the paper's instant OTS ↔ GTS switch
// (§4.2.2). It is a Splice whose callback only regroups: the level-1
// structure (queues, DI wiring) is untouched, so new executors take over
// the very same queues and elements simply buffer in them during the
// hand-over. An empty strategy keeps the deployment's default.
func (d *Deployment) SwitchGroups(plan Plan, strategy string) error {
	if plan.Cut != nil {
		return fmt.Errorf("sched: SwitchGroups cannot change the cut; use Reconfigure")
	}
	return d.Splice(func(sp *Splicer) error {
		sp.regroup(plan, strategy)
		return nil
	})
}

// Reconfigure changes the cut set (and optionally the grouping) at
// runtime: queues are inserted on newly cut edges and removed — after
// being drained — from edges that are no longer cut, exactly as §5.1.3
// prescribes ("a queue can be immediately inserted; to remove a queue all
// remaining elements must be entirely processed before"). It is a Splice
// that re-places each edge whose cut status changes (unwire, then wire
// with the new placement), so no element is dropped and every consumer
// sees exactly one end-of-stream. Bounded queues are honored throughout,
// except that the splice's own drain of removed queues may push past
// downstream bounds: every executor is halted and nothing else could free
// space.
func (d *Deployment) Reconfigure(plan Plan, strategy string) error {
	// Shard-region internal edges stay cut in every plan, so the
	// re-placement below never touches them.
	newCut, err := planCut(d.g, plan)
	if err != nil {
		return err
	}
	return d.Splice(func(sp *Splicer) error {
		for _, e := range d.g.Edges() {
			if cut := newCut[e.Key()]; cut != d.cut[e.Key()] {
				d.unwire(e)
				d.wire(e, cut, true)
			}
		}
		sp.regroup(plan, strategy)
		return nil
	})
}

// refreshUnits rebuilds the Unit wrappers around the existing queues,
// carrying completion state over.
func (d *Deployment) refreshUnits() {
	steep, pos := chainMeta(d.g)
	d.units = make(map[int][]*Unit)
	for k, q := range d.queues {
		vi := d.voOf[k.To]
		u := &Unit{
			Q:         q,
			Gate:      d.gates[vi],
			Steepness: steep[k.To],
			SegPos:    pos[k.To],
			closed:    q.Closed(),
		}
		d.units[vi] = append(d.units[vi], u)
	}
}

// rewireTargets recomputes every source adapter's resolved targets from
// the current cut and gates. Caller holds the world write lock, so no
// source is inside a delivery.
func (d *Deployment) rewireTargets() {
	for _, n := range d.g.Sources() {
		d.adapters[n.ID].targets = nil
	}
	for _, e := range d.g.Edges() {
		from, to := d.g.Node(e.From), d.g.Node(e.To)
		if from.Kind != graph.KindSource {
			continue
		}
		a := d.adapters[from.ID]
		if q := d.queues[e.Key()]; q != nil {
			a.targets = append(a.targets, srcTarget{sink: q, port: 0})
			continue
		}
		var gate *Gate
		if to.Kind != graph.KindSink {
			gate = d.gates[d.voOf[e.To]]
		}
		a.targets = append(a.targets, srcTarget{sink: downstreamSink(to), port: e.ToPort, gate: gate})
	}
}
