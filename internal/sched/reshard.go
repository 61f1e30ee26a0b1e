package sched

import (
	"fmt"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
)

// Reshard changes the replica count of a live shard region with state
// handoff. It is a Splice, so the region is changed with every executor
// halted, every source quiesced, and the splicer free to push past queue
// bounds.
//
// The protocol:
//
//  1. Quiesce the region. Drain every split→replica queue — deliveries run
//     the replicas on this goroutine, emitting into the replica→merge
//     queues — then every replica→merge queue, then flush the Merge's
//     reorder buffer downstream. After this the old replicas' windows are
//     the region's only state.
//  2. Export that state: each replica hands back the input elements it
//     still retains (ShardState), merged into one run by their split
//     sequence stamps.
//  3. Retire the region's edges (now empty), rebuild the region with n
//     fresh replicas (graph.ResizeShard resets the Split's routing and the
//     Merge's ports), and replay the exported elements through the new
//     hash in sequence order — rebuilding per-key window state without
//     emitting.
//  4. Wire the new edges; the transaction then re-derives VOs, gates,
//     units and executors (keeping the GTS single-group discipline if it
//     was in force) and restarts.
//
// Replayed elements keep their original sequence stamps and the Split's
// clock keeps running, so post-reshard outputs continue in global order
// with no seam visible downstream.
func (d *Deployment) Reshard(gr *graph.ShardGroup, n int) error {
	if gr == nil {
		return fmt.Errorf("sched: Reshard of nil shard group")
	}
	if n < 1 {
		return fmt.Errorf("sched: shard count %d < 1", n)
	}
	return d.Splice(func(sp *Splicer) error {
		if len(gr.Replicas) == n {
			return nil
		}
		split := gr.Split.Op.(*op.Split)
		merge := gr.Merge.Op.(*op.Merge)
		if split.PortsDone() || merge.Closed() {
			return fmt.Errorf("sched: cannot re-shard %q: stream is closing", gr.Name)
		}

		// 1. Quiesce: drain in dataflow order, then flush the reorder
		// buffer.
		region := append(append([]graph.Edge(nil), d.g.OutEdges(gr.Split.ID)...), d.g.InEdges(gr.Merge.ID)...)
		for _, e := range region {
			d.drainQueue(d.queues[e.Key()])
		}
		merge.FlushOpen()

		// 2. Export the old replicas' retained state in sequence order.
		var state []op.PortedElement
		for _, rn := range gr.Replicas {
			ss, ok := rn.Op.(op.ShardState)
			if !ok {
				return fmt.Errorf("sched: replica %q cannot export shard state", rn.Op.Name())
			}
			state = append(state, ss.ExportShardState()...)
		}
		op.SortPortedBySeq(state)

		// 3. Retire the region's edges and rebuild it around the state.
		for _, e := range region {
			d.unwire(e)
		}
		if _, err := d.g.ResizeShard(gr, n); err != nil {
			return err
		}
		for _, pe := range state {
			sh := op.ShardIndex(gr.Spec.Key(pe.Port, pe.E), n)
			gr.Replicas[sh].Op.(op.ShardState).ImportShardElement(pe.Port, pe.E)
		}
		sp.rows = len(state)

		// 4. Fresh bounded queues on the new edges.
		for _, e := range d.g.OutEdges(gr.Split.ID) {
			d.wire(e, true, false)
		}
		for _, e := range d.g.InEdges(gr.Merge.ID) {
			d.wire(e, true, false)
		}
		return nil
	})
}
