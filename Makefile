GO ?= go
FUZZTIME ?= 30s
BENCH_SCALE ?= 0.05
# Profiling-overhead gate: fail when running EQ1-EQ12 with per-operator
# profiling on is more than this percent slower than with it off.
# Overhead runs take best-of-OVERHEAD_ITERS to damp scheduler jitter at
# smoke scale.
BENCH_MAX_OVERHEAD ?= 5
OVERHEAD_ITERS ?= 5

.PHONY: check vet lint build test race crash-recovery repl-fault algo-diff store-race bench bench-paper bench-micro bench-smoke benchmark-smoke bench-pair bench-kernel fuzz-smoke examples

## check: the full gate — vet, build, the pgrdfvet analyzers and the
## whole test suite once under the race detector. That pass runs every
## test of the crash-recovery, repl-fault, algo-diff and store-race
## gates below, so check does not run them again; each stays a target
## of its own, and CI runs each one.
check: vet build lint race

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
	$(GO) test -race -count=1 ./...

## examples: run every program under examples/ and fail when one exits
## non-zero. The build compiles them; this runs them, so an API change
## that breaks one at run time (examples/linkeddata is the one caller
## that runs inference over a store with several models) fails here.
examples:
	for d in examples/*/; do $(GO) run ./$$d >/dev/null || exit 1; done

## crash-recovery: the durability gate — the fault-injected WAL suite
## (crash at every log byte over the checkpoint, also across a not-due
## incremental request, torn-write corpus, refusal of a directory with
## a legacy text checkpoint or a delta checkpoint),
## the snapshot codec differential (round trip ≡ source across index
## configs, corruption at every byte) and the store fingerprint those
## differentials compare by, all under the race detector.
## `make check`'s race pass runs these tests too; see DESIGN.md §12 and §16.
crash-recovery:
	$(GO) test -race -count=1 ./internal/wal ./internal/store/storetest
	$(GO) test -race -count=1 -run 'TestBinarySnapshot|TestSnapshotAtomic|TestRestoreHuge|TestSnapshotAdversarial' ./internal/store

## repl-fault: the replication gate — a follower tailing through a
## proxy that drops, delays and truncates mid-frame, plus a leader
## kill/restart, must converge to a store with the leader's
## fingerprint, a bootstrap body cut anywhere must be refused, a second
## concurrent Run must be refused, and a follower's /algo must patch its
## cached CSR from the records it applies to one equal to a fresh
## projection. `make check`'s race pass runs these tests too; see
## DESIGN.md §13.
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
## native traversal of the property graph on every scheme; and PageRank,
## WCC and triangles must give byte-identical results at every worker
## count, and one CSR and one triangle count from the twitter graph
## under RF, NG and SP — all under the race detector. `make check`'s
## race pass runs these tests too; see DESIGN.md §5 and §17.
algo-diff:
	$(GO) test -race -count=1 -run 'TestChangesSince|TestViewIsOneState' ./internal/store
	$(GO) test -race -count=1 -run 'TestSchemesEquivalent|TestRoundTripAllSchemes|TestConvertPinned|TestFromRDFRefusesLossyDataset|TestMigrateAllPairs' ./internal/pgrdf
	$(GO) test -race -count=1 -run 'TestPatch|TestProjectionIgnoresCompaction|TestDetectScheme|TestTraversalMatchesPropertyGraph|TestWalkBounds|TestParallelismByteIdentical|TestProjectCrossSchemeIdentity|TestTrianglesTwitterSchemes' ./internal/graph
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
## `make check`'s race pass runs these tests too.
store-race:
	$(GO) test -race -count=1 -run 'TestReadersNeverWaitForWriter|TestUpdateIsAtomicToReaders' ./internal/sparql
	$(GO) test -race -count=1 -run 'TestScanBatchMatchesScan|TestSeekerReuse|TestApply|TestPinnedViewChangesSince|TestViewIsOneState|TestScanBatchUnderFaultInjector|TestParallelLoadEquivalence' ./internal/store
	$(GO) test -race -count=1 -run 'TestAnswersIgnoreCompaction' ./internal/bench
	$(GO) test -race -count=1 -run 'TestSoakServingBesideWrites' ./internal/httpapi

## bench: Go micro-benchmarks plus the profiling-overhead gate. Tune
## with BENCH_SCALE / OVERHEAD_ITERS.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...
	$(MAKE) bench-overhead

## bench-overhead: run EQ1-EQ12 on both schemes with profiling off and
## on, write the differential to BENCH_profile_overhead.json, and fail
## when the aggregate overhead exceeds BENCH_MAX_OVERHEAD percent.
bench-overhead:
	$(GO) run ./cmd/benchpaper -profileoverhead -maxoverhead $(BENCH_MAX_OVERHEAD) -iters $(OVERHEAD_ITERS) -scale $(BENCH_SCALE) -out BENCH_profile_overhead.json

## bench-paper: check every shape claim of EXPERIMENTS.md — exact-count
## predicates over cardinalities, store statistics, the storage model,
## answers and executed-plan rows, ticks and indexes (internal/bench,
## claims.go) — at scale 0.1 and write the values each read to
## BENCH_paper.json. Fails when a claim does not hold. Two runs write
## the same bytes.
bench-paper:
	$(GO) run ./cmd/benchpaper -scale 0.1 -out BENCH_paper.json

## bench-micro: executor kernel microbenchmarks — the BGP driver's hot
## loops (scan, nested loop, filter, and the sorted
## intersection's triangle count: EQ12 summing its matches and grouped
## by ?z emitting per value, a random and a hub graph, each leg checking
## its count once before timing — BenchmarkIntersectKernel — and the
## 4-cycle count on the same SP store, whose marks belong on the
## checker: BenchmarkFourCycleKernel),
## the nested shapes that rerun an inner BGP per outer row (OPTIONAL,
## MINUS), the aggregate tail (grouping by one and two key columns, a
## UNION of two scans) and a 4-hop path count, counted vs enumerated
## through a sub-select (BenchmarkCountChainKernel) — plus the
## store-level benchmarks: batched scans, a range scan
## and an estimate through 0–8 000 unmerged inserts and 0–4 000
## tombstones (BenchmarkScanThroughDelta: the cost must not grow with the
## delta), one seek of an intersection join with no delta and with 4 500
## unmerged inserts, from seekers that stop after 8 and 2 048 seeks, and
## through a range whose values span three IDs per row, so its seeker
## declines to build a directory (BenchmarkSeek's sparse leg),
## locating a one- and a two-column key range of a 200 000-row run
## through its first-column directory and by binary search
## (BenchmarkRangeLocate: the A/B of the range kernel),
## and one write operation of 1, 3 and
## 300 quads on an empty and a full delta (BenchmarkApply), and one
## bulk load of RF/NG/SP at scale 0.05 as `pgrdf serve -data` builds
## it — the two default indexes, then the rest of the scheme's
## recommended set in one CreateIndex — parse excluded (BenchmarkLoad) — plus the
## analytics tier's triangle count on the algo-rf CSR at one and two
## workers and on the scan-sp store's CSR at one
## (BenchmarkTrianglesKernel; that leg and the intersection's EQ12-SP
## leg report their edges, for the two per-edge costs on one host), and
## PageRank and WCC on the algo-rf CSR at one and two workers
## (BenchmarkPageRankKernel, BenchmarkWCCKernel: the parallel speedup).
## Compare against the parent
## commit's run (bench-kernel does that for BenchmarkIntersectKernel).
bench-micro:
	$(GO) test -bench 'Kernel' -run '^$$' -benchtime 20x ./internal/sparql/
	$(GO) test -bench 'BenchmarkScan|BenchmarkApply|BenchmarkSeek|BenchmarkLoad|BenchmarkRangeLocate' -run '^$$' ./internal/store/
	$(GO) test -bench 'Kernel' -run '^$$' -benchtime 20x ./internal/graph/

## bench-smoke: one-iteration micro-benchmarks at reduced scale (the CI gate).
## The overhead differential keeps best-of-$(OVERHEAD_ITERS) even here:
## best-of-1 at smoke scale is all scheduler jitter.
bench-smoke:
	$(MAKE) bench BENCH_SCALE=0.02

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

## bench-kernel: the kernel A/B of an intersection change: check REF out
## into a git worktree, build internal/sparql's test binary there and
## here, run BenchmarkIntersectKernel on both alternately RUNS times, and
## print per leg the median ns/op of each tree and the change. Each tree
## runs its own benchmark code; a run that fails (a leg's count check)
## stops the target with its output, and a leg only one tree has is
## printed as missing on the other.
##   make bench-kernel REF=HEAD~1 [RUNS=7]
RUNS ?= 7
# Per leg: the median of each side's ns/op and the change in percent.
define KERNEL_MEDIANS
function med(side, leg,   m, i, j, t, a) {
	m = n[side, leg]
	for (i = 1; i <= m; i++) a[i] = v[side, leg, i]
	for (i = 2; i <= m; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	return m % 2 ? a[(m+1)/2] : (a[m/2] + a[m/2+1]) / 2
}
{ leg = $$2; sub(/-[0-9]+$$/, "", leg); for (i = 3; i < NF; i++) if ($$(i+1) == "ns/op") { v[$$1, leg, ++n[$$1, leg]] = $$i; legs[leg] = 1 } }
END {
	printf "%-44s %14s %14s %9s\n", "leg (median ns/op)", "ref", "new", "change"
	for (leg in legs) if (n["ref", leg] && n["new", leg]) {
		r = med("ref", leg); c = med("new", leg)
		printf "%-44s %14.0f %14.0f %+8.1f%%\n", leg, r, c, 100 * (c - r) / r
	} else if (n["ref", leg]) printf "%-44s %14.0f %14s\n", leg, med("ref", leg), "missing"
	else printf "%-44s %14s %14.0f\n", leg, "missing", med("new", leg)
}
endef
export KERNEL_MEDIANS
bench-kernel:
	@test -n "$(REF)" || { echo "usage: make bench-kernel REF=<commit> [RUNS=7]"; exit 2; }
	rm -rf .bench_kernel && git worktree prune
	git worktree add --detach .bench_kernel/ref $(REF)
	$(GO) test -c -o .bench_kernel/new.test ./internal/sparql && \
	(cd .bench_kernel/ref && $(GO) test -c -o ../ref.test ./internal/sparql) && \
	(for i in $$(seq $(RUNS)); do for side in ref new; do \
		./.bench_kernel/$$side.test -test.run '^$$' -test.bench IntersectKernel -test.benchtime 20x > .bench_kernel/run.txt || \
			{ cat .bench_kernel/run.txt; echo "bench-kernel: $$side run $$i failed"; exit 1; } >&2; \
		sed -n "s/^Benchmark/$$side Benchmark/p" .bench_kernel/run.txt; \
	done; done) > .bench_kernel/runs.txt && \
	awk "$$KERNEL_MEDIANS" .bench_kernel/runs.txt; \
		status=$$?; git worktree remove --force .bench_kernel/ref; exit $$status

## fuzz-smoke: run each parser fuzz target (N-Quads reader, its
## one-statement ParseQuad against the reader, Turtle, SPARQL, the WAL
## record decoder, the /wal tail body a follower applies, the binary
## snapshot's section decoders behind their CRCs), and the
## results-encoder differential (byte-identical to encoding/json), for
## FUZZTIME (default 30s). Regression seeds always run as part of plain
## `make test` too.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/ntriples
	$(GO) test -run='^$$' -fuzz=FuzzParseQuad -fuzztime=$(FUZZTIME) ./internal/ntriples
	$(GO) test -run='^$$' -fuzz=FuzzDecodePayload -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzApplyFrames -fuzztime=$(FUZZTIME) ./internal/repl
	$(GO) test -run='^$$' -fuzz=FuzzRestoreBinary -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/turtle
	$(GO) test -run='^$$' -fuzz=FuzzParseAndExec -fuzztime=$(FUZZTIME) ./internal/sparql
	$(GO) test -run='^$$' -fuzz=FuzzWriteResultsJSON -fuzztime=$(FUZZTIME) ./internal/httpapi
