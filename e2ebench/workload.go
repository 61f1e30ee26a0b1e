package main

import (
	"fmt"
	"time"
)

// query is one standing query a workload registers, with its HAVING as an
// inclusive key range [lo, hi] the reference checker applies. Every query
// shares the same WHERE + grouped windowed average.
type query struct {
	text   string
	lo, hi int64
	// churned queries are added and dropped live: they must deliver only
	// results the reference contains, not all of them.
	churned bool
}

// workload is one traffic mix. The latency-phase rate is fixed, not
// derived from a measurement, so the parent and the change see the same
// inputs; it sits at about a quarter of the capacity measured on a
// 2-vCPU host.
type workload struct {
	name     string
	mode     string // START mode
	rateHz   float64
	standing []query
	// churn adds and drops one query every 250 ms and rebalances every
	// 2 s during the measured latency phase; the other workloads only
	// probe the splice path in the unmeasured tail.
	churn bool
	shard bool
}

const (
	whereAgg         = "SELECT avg(val) FROM ext WHERE key < 500 GROUP BY KEY WINDOW 1s"
	shardedHavingKey = 460 // HAVING key >= shardedHavingKey keeps ~1% of aggregate outputs
	churnCount       = 64
	keyMax           = int64(1<<63 - 1)
)

var workloads = map[string]*workload{
	"agg_results": {
		name: "agg_results", mode: "hmts", rateHz: 200_000,
		standing: []query{{text: whereAgg, lo: 0, hi: keyMax}},
	},
	"sharded_agg": {
		name: "sharded_agg", mode: "di", rateHz: 600_000, shard: true,
		standing: []query{{text: fmt.Sprintf("%s HAVING key >= %d SHARD 2", whereAgg, shardedHavingKey), lo: shardedHavingKey, hi: keyMax}},
	},
	"query_churn": {
		name: "query_churn", mode: "hmts", rateHz: 90_000, churn: true,
		standing: churnQueries(),
	},
}

func churnQueries() []query {
	qs := make([]query, churnCount)
	for i := range qs {
		qs[i] = keyQuery(int64(i), false)
	}
	return qs
}

// keyQuery is the standing-query shape of query_churn: the shared prefix
// plus a private HAVING key = k.
func keyQuery(k int64, churned bool) query {
	return query{text: fmt.Sprintf("%s HAVING key = %d", whereAgg, k), lo: k, hi: k, churned: churned}
}

// probeQuery is the mutation probe of the workloads without churn: the
// workload's own query with a HAVING that keeps nothing, so it prices the
// splice without adding results.
func (w *workload) probeQuery() query {
	text := whereAgg + " HAVING key < 0"
	if w.shard {
		text += " SHARD 2"
	}
	return query{text: text, lo: 1, hi: 0, churned: true}
}

// spacing is the TS distance between consecutive elements: the latency
// phase sends element i when it is due, at i*spacing after the phase
// starts, and the saturation phase continues the same timestamps so the
// 1 s windows hold the same number of rows in both phases.
func (w *workload) spacing() int64 { return int64(time.Second) / int64(w.rateHz) }

// setupCommands is everything between connect and START.
func (w *workload) setupCommands() []string {
	cmds := []string{"SOURCE ext EXTERNAL POLICY block"}
	for _, q := range w.standing {
		cmds = append(cmds, "QUERY ADD "+q.text)
	}
	return append(cmds, fmt.Sprintf("START %s BOUND 1024", w.mode))
}

// phases splits one run of the given measured seconds.
type phases struct {
	warmup, latency, tail, saturation time.Duration
}

func phasesFor(seconds int) phases {
	half := time.Duration(seconds) * time.Second / 2
	return phases{warmup: 500 * time.Millisecond, latency: half, tail: 1600 * time.Millisecond, saturation: half}
}

const (
	framePeriod    = time.Millisecond // latency-phase send period
	saturationRecs = 512              // elements per saturation-phase frame
	churnEvery     = 250 * time.Millisecond
	rebalanceEvery = 2 * time.Second
	postMutation   = 100 * time.Millisecond
	probePairs     = 16
	// latencyWindows and satBin cut the two phases into intervals whose
	// medians the run reports, so one host hiccup moves one interval only.
	latencyWindows = 20
	satBin         = 250 * time.Millisecond
)
