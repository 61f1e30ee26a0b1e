package sched

import "sync/atomic"

// The reshard pause model predicts how long a live Reshard would stop the
// region: a fixed splice overhead (halt executors, drain queues, rebuild
// wiring, re-derive the schedule) plus a per-retained-row cost for the
// state export/replay. Both terms start from seeds measured on the
// development box (BenchmarkLiveReshard: ~10ms at 50k retained rows) and
// converge to the deployment's real costs by EWMA over every measured
// splice — one that ports no state (a regroup, a query registration)
// measures the fixed overhead — so the estimate tracks the hardware it
// runs on.
const (
	seedReshardOverheadNS = 2_000_000 // ~2ms fixed splice cost
	seedReshardPerRowNS   = 200       // ~200ns export+rehash+replay per row

	// reshardModelAlpha weights a new measurement against the running
	// estimate. Reshards are rare events, so adapt quickly.
	reshardModelAlpha = 0.2

	// reshardModelMinRows is the retained-row count below which a measured
	// pause is attributed to fixed overhead rather than per-row cost — the
	// per-row signal drowns in noise on nearly-empty regions.
	reshardModelMinRows = 64
)

// loadOrSeed returns the model term, or its seed before any measurement.
func loadOrSeed(a *atomic.Int64, seed int64) int64 {
	if v := a.Load(); v > 0 {
		return v
	}
	return seed
}

// ewmaStore folds one sample into a model term.
func ewmaStore(a *atomic.Int64, sample, seed int64) {
	prev := loadOrSeed(a, seed)
	a.Store(prev + int64(reshardModelAlpha*float64(sample-prev)))
}

// observeReshard feeds one measured splice (total pause, rows ported)
// into the model. Called under the admin lock at the end of Splice.
func (d *Deployment) observeReshard(elapsedNS int64, rows int) {
	if elapsedNS <= 0 {
		return
	}
	if rows >= reshardModelMinRows {
		over := loadOrSeed(&d.reshardOverheadNS, seedReshardOverheadNS)
		perRow := (elapsedNS - over) / int64(rows)
		if perRow < 1 {
			perRow = 1
		}
		ewmaStore(&d.reshardPerRowNS, perRow, seedReshardPerRowNS)
	} else {
		ewmaStore(&d.reshardOverheadNS, elapsedNS, seedReshardOverheadNS)
	}
}

// ReshardPauseEstimateNS predicts the stop-the-region pause of resharding
// a region currently retaining rows of state. Lock-free; safe to call from
// a metrics snapshot while the deployment runs.
func (d *Deployment) ReshardPauseEstimateNS(rows int) int64 {
	if rows < 0 {
		rows = 0
	}
	over := loadOrSeed(&d.reshardOverheadNS, seedReshardOverheadNS)
	per := loadOrSeed(&d.reshardPerRowNS, seedReshardPerRowNS)
	return over + per*int64(rows)
}
