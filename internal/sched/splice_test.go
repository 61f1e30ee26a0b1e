package sched

import (
	"sync/atomic"
	"testing"

	"github.com/dsms/hmts/internal/graph"
	"github.com/dsms/hmts/internal/op"
	"github.com/dsms/hmts/internal/stream"
	"github.com/dsms/hmts/internal/workload"
)

// doneCounter forwards elements and counts every Done it receives.
type doneCounter struct {
	op.Base
	dones atomic.Int32
}

func (c *doneCounter) Process(_ int, e stream.Element) { c.Emit(e) }

func (c *doneCounter) Done(port int) {
	c.dones.Add(1)
	if c.MarkDone(port) {
		c.Close()
	}
}

// TestReconfigureRewiredEdgeSeesOneDone re-places both edges into a
// counting operator after their producers (a source and a filter) have
// finished: the operator already has its end-of-stream, so neither a queue
// inserted on the edge nor the direct edge that replaces it again may
// deliver a second one — and the deployment must still finish.
func TestReconfigureRewiredEdgeSeesOneDone(t *testing.T) {
	g := graph.New()
	src := g.AddSource("src", workload.New("src", 1000, workload.SeqKeys(), workload.FixedRate{Hz: 1e6}, nil), 1e6)
	even := g.AddOp("even", op.NewFilter("even", func(e stream.Element) bool { return e.Key%2 == 0 }), 100, 0.5)
	fromSrc, fromOp := &doneCounter{}, &doneCounter{}
	fromSrc.InitBase("fromSrc", 1)
	fromOp.InitBase("fromOp", 1)
	a := g.AddOp("fromSrc", fromSrc, 100, 1)
	b := g.AddOp("fromOp", fromOp, 100, 1)
	sink := op.NewCollector(2)
	out := g.AddSink("out", sink)
	g.Connect(src, a, 0)
	g.Connect(src, even, 0)
	g.Connect(even, b, 0)
	g.Connect(a, out, 0)
	g.Connect(b, out, 1)
	d, err := Build(g, PureDI(g), Options{QueueBound: 16})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	d.Wait()
	sink.Wait()
	rewired := map[graph.EdgeKey]bool{
		{From: src.ID, To: a.ID, ToPort: 0}:  true,
		{From: even.ID, To: b.ID, ToPort: 0}: true,
	}
	for i, cut := range []map[graph.EdgeKey]bool{rewired, nil} {
		if err := d.Reconfigure(Plan{Cut: cut}, ""); err != nil {
			t.Fatalf("reconfigure %d: %v", i, err)
		}
		d.Wait()
		if got := len(d.Queues()); got != len(cut) {
			t.Fatalf("reconfigure %d: %d queues, want %d", i, got, len(cut))
		}
		for _, c := range []*doneCounter{fromSrc, fromOp} {
			if n := c.dones.Load(); n != 1 {
				t.Fatalf("reconfigure %d: %s saw %d Done, want exactly 1", i, c.Name(), n)
			}
		}
	}
	if sink.Len() != 1500 {
		t.Fatalf("sink got %d elements, want 1500", sink.Len())
	}
}
