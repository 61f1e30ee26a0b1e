GO ?= go

.PHONY: ci vet build test race saturation bench benchsmoke bounded soakshort soakshard soakautoscale soakchurn benchdiff fuzzsmoke e2esmoke

# The gate every PR must pass. benchsmoke compiles and runs every benchmark
# once so a PR cannot rot the measurement harness silently; soakshort runs
# the canonical burst + stall + live-reconfigure soak scenario with SLO
# assertions; soakshard does the same for the data-parallel shard region
# with live replica-count changes; soakautoscale closes the control loop
# (the autoscaler must grow and shrink the region on its own); soakchurn
# registers and drops 50 standing queries live mid-burst through the
# multi-query subsumption path with a zero-drop SLO; benchdiff re-measures
# the tracked benchmarks and fails on regressions beyond the tolerance
# band; e2esmoke runs every end-to-end benchmark workload briefly against
# its reference checker.
ci: vet build test race saturation benchsmoke bounded soakshort soakshard soakautoscale soakchurn benchdiff e2esmoke

# Covers cmd/ as well as internal/ — ./... is the whole module.
vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The batched transfer path is lock-heavy and concurrent, and the ingress
# buffer and adaptive controller are exercised from many goroutines; keep
# the data-race detector on their packages in the gate. internal/op is
# included for the batch-boundary invariance harness, which drives every
# operator with one-element and random-size batches. The root package, the daemon and
# the soak harness prove the public Engine methods safe against each
# other (TestActuatorsConcurrentWithMetrics hammers every actuator).
race:
	$(GO) test -race ./internal/queue ./internal/sched ./internal/ingest ./internal/op ./adapt . ./cmd/hmtsd ./internal/soak

# The bounded-queue deadlock regression gate: cooperative blocking must
# survive a single OS thread, where a parked producer that fails to yield
# its run permit freezes the whole process rather than just one pipeline.
# ParkedSource replays splices against sources parked on full queues.
bounded:
	GOMAXPROCS=1 $(GO) test -timeout 120s \
		-run 'Bounded|BlockedProducer|PermitHolding|LeaksNoGoroutines|Hook|Reconfigure|ParkedSource' \
		./internal/queue ./internal/sched .

# The capacity-model validation is a timing experiment; run it a few times so
# a flaky pass cannot slip through.
saturation:
	$(GO) test -run TestSaturationShape -count=3 ./internal/exp

# The tracked benchmark suites. Suite <s> measures the packages in
# BENCH_PKGS_<s> with -bench BENCH_RUN_<s> (default .) and is recorded in
# BENCH_<s>.json (name -> ns/op, allocs/op) for machine diffing across
# PRs. bench, benchdiff and benchsmoke all run exactly this list;
# BENCH_UNTRACKED is measured by bench and smoked but has no baseline.
BENCH_SUITES := sched ingest ops shard multi adapt
BENCH_PKGS_sched := ./internal/sched
BENCH_PKGS_ingest := ./internal/ingest ./cmd/hmtsd
BENCH_PKGS_ops := ./internal/op
BENCH_PKGS_shard := .
BENCH_RUN_shard := ShardScaling|LiveReshard
BENCH_PKGS_multi := .
BENCH_RUN_multi := MultiQuery|RegisterSimilar
BENCH_PKGS_adapt := ./adapt
BENCH_UNTRACKED := ./internal/queue

# bench_test(suite, flags): the go test command measuring one suite.
bench_test = $(GO) test -run '^$$' -bench '$(or $(BENCH_RUN_$(1)),.)' $(2) $(BENCH_PKGS_$(1))

# Each canned line below is one recipe line: a failing suite stops make.
define bench_record
	$(call bench_test,$(1),-benchmem) | $(GO) run ./cmd/benchjson > BENCH_$(1).json
	@echo wrote BENCH_$(1).json

endef

define bench_measure
	$(call bench_test,$(1),-benchmem -benchtime $(BENCHDIFF_TIME) -count=2) | $(GO) run ./cmd/benchjson > .bench/$(1).json

endef

define bench_diff
	$(GO) run ./cmd/benchdiff $(BENCHDIFF_FLAGS) BENCH_$(1).json .bench/$(1).json

endef

define bench_smoke
	$(call bench_test,$(1),-benchtime 1x)

endef

# Full benchmark run; every tracked suite lands in its BENCH_<s>.json.
bench:
	$(GO) test -bench . -benchmem $(BENCH_UNTRACKED)
	$(foreach s,$(BENCH_SUITES),$(call bench_record,$(s)))

# One iteration of every benchmark: a compile-and-smoke pass for ci. The
# root package runs only the shard and multi-query benches — the Fig*
# experiment benchmarks are full evaluation runs and far too slow for a
# smoke pass.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_UNTRACKED)
	$(foreach s,$(BENCH_SUITES),$(call bench_smoke,$(s)))

# The canonical soak gate: ~9 seconds of open-loop bursty load through the
# external ingest path with a slow-consumer stall, a live mode switch, and
# a shed cycle, asserting per-second latency/backlog/loss SLOs. Fails the
# build on any SLO violation or failure to drain.
soakshort:
	$(GO) run ./cmd/hmtssoak -scenario short

# The shard soak gate: bursty zipf load through a sharded aggregation under
# bounded Block-policy queues with three live replica-count changes
# mid-run. Catches reshard deadlocks, stuck merges and lost elements.
soakshard:
	$(GO) run ./cmd/hmtssoak -scenario shard

# The autoscaling soak gate: a 10x ramp-hold-decay against a sharded
# aggregation with NO scripted reshards — the adapt.Autoscaler must grow
# the replica count from measured c(v)/d(v) on the ramp and shrink it back
# on the decay, within a reshard budget that forbids flapping, with zero
# drops under Block-policy bounded queues.
soakautoscale:
	$(GO) run ./cmd/hmtssoak -scenario autoscale

# The query-churn soak gate: 50 standing queries registered and dropped
# live mid-burst through the subsumption rewriter against a Block-policy
# ingress. Catches splice deadlocks, pruned-queue leaks and lost elements
# — zero drops are an SLO, not a hope.
soakchurn:
	$(GO) run ./cmd/hmtssoak -scenario churn

# Perf-regression gate: re-measure the tracked benchmark suites with a
# short benchtime (two repetitions, min taken) and diff against the
# committed BENCH_*.json baselines. The tolerance band is wide (see
# cmd/benchdiff) so CI noise passes but order-of-magnitude regressions and
# new hot-path allocations fail. Re-baseline with `make bench` after an
# intentional perf change.
BENCHDIFF_TIME ?= 0.2s
BENCHDIFF_FLAGS ?= -q
benchdiff:
	@mkdir -p .bench
	$(foreach s,$(BENCH_SUITES),$(call bench_measure,$(s)))
	$(foreach s,$(BENCH_SUITES),$(call bench_diff,$(s)))

# Short fuzz pass over the hmtsd line protocol and the order-restoring
# shard merge; the corpora keep growing under testdata/fuzz as failures
# are found.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzReadLine -fuzztime 10s ./cmd/hmtsd
	$(GO) test -run '^$$' -fuzz FuzzPushParse -fuzztime 10s ./cmd/hmtsd
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s ./cmd/hmtsd
	$(GO) test -run '^$$' -fuzz FuzzResultLine -fuzztime 10s ./cmd/hmtsd
	$(GO) test -run '^$$' -fuzz FuzzShardMerge -fuzztime 10s ./internal/op

# The end-to-end correctness smoke: each workload of BENCHMARK.json runs
# for two seconds through hmtsd (bash e2ebench/run.sh) with the reference
# checker on. A workload fails the leg unless its JSON record reports
# "correct":true — no missing, extra or wrong result — and "failed":0.
# Timing metrics are printed but not gated here; BENCHMARK.json bounds
# them. About 30 s per workload, build included.
E2E_WORKLOADS := agg_results sharded_agg query_churn
e2esmoke:
	@for w in $(E2E_WORKLOADS); do \
		out=$$(bash e2ebench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0) || exit 1; \
		rec=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "e2esmoke $$w: $$rec"; \
		case "$$rec" in *'"correct":true'*) ;; *) echo "e2esmoke: $$w results are not correct" >&2; exit 1;; esac; \
		case "$$rec" in *'"failed":0,'*|*'"failed":0}'*) ;; *) echo "e2esmoke: $$w has failed operations" >&2; exit 1;; esac; \
	done
