package op

import (
	"sync/atomic"

	"github.com/dsms/hmts/internal/simtime"
	"github.com/dsms/hmts/internal/stream"
)

// CostSim is a pass-through operator with a configurable per-element
// processing cost and an optional selection predicate. It reproduces the
// paper's synthetic operators exactly: §6.6 uses "a selection with a
// selectivity of 0.3 and processing costs of approximately 2 seconds" to
// simulate a complex predicate evaluation. The cost is burned with the
// goroutine held runnable (simtime.Busy), so it genuinely occupies the
// executing thread the way an expensive predicate would.
type CostSim struct {
	Base
	costNS atomic.Int64
	pred   func(stream.Element) bool
}

// NewCostSim returns an operator that burns costNS of CPU-occupying time
// per element and then forwards elements passing pred (nil pred passes
// everything).
func NewCostSim(name string, costNS int64, pred func(stream.Element) bool) *CostSim {
	if costNS < 0 {
		panic("op: negative simulated cost")
	}
	c := &CostSim{pred: pred}
	c.costNS.Store(costNS)
	c.InitBase(name, 1)
	return c
}

// CostNS returns the configured per-element cost in nanoseconds.
func (c *CostSim) CostNS() int64 { return c.costNS.Load() }

// SetCost changes the simulated per-element cost on a live operator —
// the soak harness's expensive-operator fault injection. Safe from any
// goroutine; elements already mid-batch finish at the old cost.
func (c *CostSim) SetCost(costNS int64) {
	if costNS < 0 {
		panic("op: negative simulated cost")
	}
	c.costNS.Store(costNS)
}

// ProcessBatch implements Sink: the simulated cost is burned in one
// spin of n×costNS — the same total thread occupancy as n one-element
// batches.
func (c *CostSim) ProcessBatch(_ int, es []stream.Element) {
	if len(es) == 0 {
		return
	}
	t := c.BeginWorkBatch(es)
	simtime.Busy(c.costNS.Load() * int64(len(es)))
	out := c.scratch(len(es))
	for _, e := range es {
		if c.pred == nil || c.pred(e) {
			out = append(out, e)
		}
	}
	c.flush(out)
	c.EndWorkBatch(t, len(es))
}

// Done implements Sink.
func (c *CostSim) Done(port int) {
	if c.MarkDone(port) {
		c.Close()
	}
}
