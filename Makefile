GO ?= go
FUZZTIME ?= 30s
# Algo-bench worker budget: default to the machine's cores so the
# published BENCH_algos.json is measured on real parallelism. The
# bench-algos target passes -require-cores, so asking for more workers
# than GOMAXPROCS fails instead of publishing scheduler noise.
BENCH_WORKERS ?= $(shell nproc 2>/dev/null || echo 8)
BENCH_ITERS ?= 3
BENCH_SCALE ?= 0.05
# Profiling-overhead gate: fail when running EQ1-EQ12 with per-operator
# profiling on is more than this percent slower than with it off.
# Overhead runs take best-of-OVERHEAD_ITERS to damp scheduler jitter at
# smoke scale.
BENCH_MAX_OVERHEAD ?= 5
OVERHEAD_ITERS ?= 5

.PHONY: check vet lint build test race crash-recovery repl-fault algo-diff store-race bench bench-algos bench-algos-smoke bench-micro bench-smoke benchmark-smoke bench-pair fuzz-smoke

## check: the full gate — vet, build, the pgrdfvet analyzers, the
## race-enabled test suite, the crash-recovery differential, the
## replication fault-injection differential, the incremental-CSR
## differential, and the readers-beside-a-writer gate.
check: vet build lint race crash-recovery repl-fault algo-diff store-race

vet:
	$(GO) vet ./...

## lint: run the repo-specific static analyzers (see DESIGN.md,
## "Static analysis gate" and §14). Exit code 1 means findings.
lint:
	$(GO) run ./cmd/pgrdfvet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## crash-recovery: the durability gate — the fault-injected WAL suite
## (crash at every log byte over the checkpoint and its delta chain,
## torn-write corpus, refusal of a legacy text-checkpoint directory),
## the snapshot codec differential (round trip ≡ source across index
## configs, corruption at every byte) and the store fingerprint those
## differentials compare by, all under the race detector.
## Part of `make check`; see DESIGN.md §12 and §16.
crash-recovery:
	$(GO) test -race -count=1 ./internal/wal ./internal/store/storetest
	$(GO) test -race -count=1 -run 'TestBinarySnapshot|TestSnapshotAtomic|TestRestoreHuge|TestSnapshotAdversarial' ./internal/store

## repl-fault: the replication gate — a follower tailing through a
## proxy that drops, delays and truncates mid-frame, plus a leader
## kill/restart, must converge to a store with the leader's
## fingerprint, a bootstrap body cut anywhere must be refused, a second
## concurrent Run must be refused, and a follower's /algo must patch its
## cached CSR from the records it applies to one equal to a fresh
## projection. Part of `make check`; see DESIGN.md §13.
repl-fault:
	$(GO) test -race -count=1 ./internal/repl
	$(GO) test -race -count=1 -run 'TestFollowerAlgoPatches' ./internal/httpapi

## algo-diff: the analytics gate — a CSR patched forward from the store
## change log must equal one projected from scratch after every update
## (seeded update sequences over RF/NG/SP × conversion options × label /
## weight filters, the named edge cases, ring overflow and Load
## barriers), the change log must be exact at the ring boundaries, and
## /algo under a concurrent writer must end with patched ≡ from-scratch
## and no change applied twice or lost; and the one scheme definition the
## projector and patcher decode by must hold as the paper's equivalence —
## seeded generated graphs round-trip, project to one CSR and answer the
## query builder's queries alike under RF, NG and SP, Convert is pinned
## byte for byte, lossy datasets are refused, and DetectScheme names each
## scheme; and walks and shortest paths over the projection must equal a
## native traversal of the property graph on every scheme — all under
## the race detector. Part of `make check`; see DESIGN.md §5 and §17.
algo-diff:
	$(GO) test -race -count=1 -run 'TestChangesSince|TestViewIsOneState' ./internal/store
	$(GO) test -race -count=1 -run 'TestSchemesEquivalent|TestRoundTripAllSchemes|TestConvertPinned|TestFromRDFRefusesLossyDataset|TestMigrateAllPairs' ./internal/pgrdf
	$(GO) test -race -count=1 -run 'TestPatch|TestProjectionIgnoresCompaction|TestDetectScheme|TestTraversalMatchesPropertyGraph|TestWalkBounds' ./internal/graph
	$(GO) test -race -count=1 -run 'TestAlgo' ./internal/httpapi

## store-race: the concurrency gate of the versioned store (DESIGN.md
## §18), under the race detector — the deadlock reproducer (two readers
## whose batch DFS re-enters the store, a looping writer, a poller; a
## 10 s watchdog) and the atomic-update test (a count is 0 or 3, a join
## 0 or 9, never in between); the isolation walk (views pinned during a
## randomized mutation sequence keep showing what they showed, seeks
## included; Seek ≡ a forced-index scan of the same prefix through the
## zero-copy and the delta-merge paths; Apply sets and the pinned change
## log against a reference); answers of
## EQ1–EQ12 on RF/NG/SP unchanged by Compact(); a bulk load at
## GOMAXPROCS 1 and 8 (one index build per goroutine) giving the same
## indexes; and the 30 s soak of 8
## readers + writer + /algo + background checkpointer ending with
## /stats answering, no open cursor and store ≡ restored-from-disk.
## Part of `make check`.
store-race:
	$(GO) test -race -count=1 -run 'TestReadersNeverWaitForWriter|TestUpdateIsAtomicToReaders' ./internal/sparql
	$(GO) test -race -count=1 -run 'TestScanBatchMatchesScan|TestSeekerReuse|TestApply|TestPinnedViewChangesSince|TestViewIsOneState|TestScanBatchUnderFaultInjector|TestParallelLoadEquivalence' ./internal/store
	$(GO) test -race -count=1 -run 'TestAnswersIgnoreCompaction' ./internal/bench
	$(GO) test -race -count=1 -run 'TestSoakServingBesideWrites' ./internal/httpapi

## bench: Go micro-benchmarks plus the profiling-overhead gate. Tune
## with BENCH_ITERS / BENCH_SCALE.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...
	$(MAKE) bench-overhead

## bench-overhead: run EQ1-EQ12 on both schemes with profiling off and
## on, write the differential to BENCH_profile_overhead.json, and fail
## when the aggregate overhead exceeds BENCH_MAX_OVERHEAD percent.
bench-overhead:
	$(GO) run ./cmd/benchpaper -profileoverhead -maxoverhead $(BENCH_MAX_OVERHEAD) -iters $(OVERHEAD_ITERS) -scale $(BENCH_SCALE) -out BENCH_profile_overhead.json

## bench-algos: the graph-analytics comparison — CSR projection plus
## PageRank / WCC / triangle counting, serial vs parallel, on all three
## schemes, and the update-then-algo leg (patch_ms next to
## csr_build_ms for a one-edge and a 100-edge update) — written to
## BENCH_algos.json. -require-cores refuses to
## publish speedup numbers measured with fewer cores than workers; the
## embedded fingerprints prove serial/parallel and cross-scheme results
## were identical.
bench-algos:
	$(GO) run ./cmd/benchpaper -algobench -require-cores -workers $(BENCH_WORKERS) -iters $(BENCH_ITERS) -scale $(BENCH_SCALE) -out BENCH_algos.json

## bench-algos-smoke: one-iteration algo bench at reduced scale (the CI
## gate). No -require-cores: CI hosts publish whatever parallelism they
## have, recorded in the report's gomaxprocs field.
bench-algos-smoke:
	$(GO) run ./cmd/benchpaper -algobench -workers $(BENCH_WORKERS) -iters 1 -scale 0.02 -out BENCH_algos.json

## bench-micro: executor kernel microbenchmarks — the BGP driver's hot
## loops (scan, hash probe, nested loop, filter, and the sorted
## intersection's triangle count: EQ12 summing its matches and grouped
## by ?z emitting per value, a random and a hub graph, each leg checking
## its count once before timing — BenchmarkIntersectKernel),
## the nested shapes that rerun an inner BGP per outer row (OPTIONAL,
## MINUS), the aggregate tail (grouping by one and two key columns, a
## UNION of two scans) and a 4-hop path count, counted vs enumerated
## through a sub-select (BenchmarkCountChainKernel) — plus the
## store-level benchmarks: batched scans, a range scan
## and an estimate through 0–8 000 unmerged inserts and 0–4 000
## tombstones (BenchmarkScanThroughDelta: the cost must not grow with the
## delta), one seek of an intersection join with no delta and with 4 500
## unmerged inserts (BenchmarkSeek), and one write operation of 1, 3 and
## 300 quads on an empty and a full delta (BenchmarkApply), and one
## bulk load of RF/NG/SP at scale 0.05 into serve's four indexes, parse
## excluded (BenchmarkLoad) — plus the
## analytics tier's triangle count on the algo-rf CSR at one and two
## workers (BenchmarkTrianglesKernel). Compare against the parent
## commit's run.
bench-micro:
	$(GO) test -bench 'Kernel' -run '^$$' -benchtime 20x ./internal/sparql/
	$(GO) test -bench 'BenchmarkScan|BenchmarkApply|BenchmarkSeek|BenchmarkLoad' -run '^$$' ./internal/store/
	$(GO) test -bench 'TrianglesKernel' -run '^$$' -benchtime 20x ./internal/graph/

## bench-smoke: one-iteration bench at reduced scale (the CI gate).
## The overhead differential keeps best-of-$(OVERHEAD_ITERS) even here:
## best-of-1 at smoke scale is all scheduler jitter.
bench-smoke:
	$(MAKE) bench BENCH_ITERS=1 BENCH_SCALE=0.02

## benchmark-smoke: the serving benchmark's own gate (BENCHMARK.json,
## benchmark/ — a separate module the root's ./... does not reach): its
## 10 s end-to-end smoke test, then -selfcheck, which runs a workload
## twice and fails when the run-to-run spread is too wide to resolve the
## declared bounds, or when a timed pass has become shorter than 3 s — it
## then prints the Requests value to set in benchmark/spec.go, which is a
## benchmark-only change (~5 min).
benchmark-smoke:
	(cd benchmark && $(GO) test ./...)
	$(GO) run -C benchmark repro/benchmark -selfcheck

## bench-pair: the paired comparison that a performance claim needs
## (benchmark/README.md, "Naming a claim"): check REF out into a git
## worktree, give it this tree's benchmark/ so both sides run the same
## benchmark code, run WORKLOAD alternately on both trees PAIRS times,
## and print per-metric medians, quartiles, wins and a verdict.
##   make bench-pair REF=HEAD~1 WORKLOAD=mixed-rw-ng [PAIRS=10] [SEED=1]
PAIRS ?= 10
SEED ?= 1
bench-pair:
	@test -n "$(REF)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pair REF=<commit> WORKLOAD=<name> [PAIRS=10] [SEED=1]"; exit 2; }
	rm -rf .bench_pair && git worktree prune
	git worktree add --detach .bench_pair/ref $(REF)
	rm -rf .bench_pair/ref/benchmark && cp -r benchmark .bench_pair/ref/benchmark && rm -rf .bench_pair/ref/benchmark/out
	$(GO) run ./cmd/benchpair -ref .bench_pair/ref -new . -workload $(WORKLOAD) -pairs $(PAIRS) -seed $(SEED); \
		status=$$?; git worktree remove --force .bench_pair/ref; exit $$status

## fuzz-smoke: run each parser fuzz target (N-Quads reader, its
## one-statement ParseQuad against the reader, Turtle, SPARQL, the WAL
## record decoder, the delta-chain decoder behind Open, the binary
## snapshot's section decoders behind their CRCs), and the results-encoder
## differential (byte-identical to encoding/json), for FUZZTIME
## (default 30s). Regression seeds always run as part of plain
## `make test` too.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/ntriples
	$(GO) test -run='^$$' -fuzz=FuzzParseQuad -fuzztime=$(FUZZTIME) ./internal/ntriples
	$(GO) test -run='^$$' -fuzz=FuzzDecodePayload -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzLoadDeltas -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzRestoreBinary -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/turtle
	$(GO) test -run='^$$' -fuzz=FuzzParseAndExec -fuzztime=$(FUZZTIME) ./internal/sparql
	$(GO) test -run='^$$' -fuzz=FuzzWriteResultsJSON -fuzztime=$(FUZZTIME) ./internal/httpapi
