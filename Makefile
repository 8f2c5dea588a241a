# Convenience targets for the OFAR reproduction.

GO ?= go

.PHONY: all build test test-short test-race loc loc-check api api-check footprint bench bench-pairs golden-regen vet cover cover-check figures figures-h6 fuzz serve smoke-serve smoke-trace smoke-cli clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the worker pool (and everything else).
test-race:
	$(GO) test -race -short ./...

cover:
	$(GO) test -short -cover ./...

# Non-test Go line counts (plain wc -l) of the packages ROADMAP items 2-3 set
# their acceptance numbers on (cmd/experiments also counts inside cmd).
# LOC_COUNT counts directory $$d of the shell.
LOC_COUNT = find $$d $$([ $$d = cmd ] || [ $$d = examples ] || echo -maxdepth 1) -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

loc:
	@for d in internal/network internal/router internal/packet internal/routing internal/core internal/simcore internal/stats internal/topology internal/traffic internal/service internal/cli . cmd cmd/experiments examples; do \
		printf '%-18s %6d\n' $$d $$($(LOC_COUNT)); \
	done

# Line budget of the engine (ROADMAP item 1: "non-test lines not up"): the
# internal/network + internal/router sum may not exceed the ceiling, which is
# the measured sum at the time the gate was added — lower it when a deletion
# lands, never raise it to make a PR pass.
LOC_CEILING ?= 4528

loc-check: loc
	@sum=0; for d in internal/network internal/router; do sum=$$((sum + $$($(LOC_COUNT)))); done; \
	echo "internal/network + internal/router: $$sum non-test lines (ceiling $(LOC_CEILING))"; \
	[ $$sum -le $(LOC_CEILING) ] || { echo "engine grew past the $(LOC_CEILING)-line ceiling"; exit 1; }

# The root package's exported API, pinned the way Go pins its own: api.txt
# is `go doc -all .`. After a deliberate API change run `make api` and review
# the diff; api-check (CI) fails while the two disagree.
api:
	$(GO) doc -all . > api.txt

api-check:
	@$(GO) doc -all . | diff -u api.txt - || { echo "the exported API differs from api.txt (make api regenerates it)"; exit 1; }

# What a constructed network costs: arena state, heap after New and warm
# snapshot size at h=2/3/6/8 (the table in docs/ARCHITECTURE.md, "Memory
# follows ownership"). The test also bounds the arenas and the heap at h=3 and h=6.
footprint:
	$(GO) test ./internal/network -run '^TestConstructFootprint$$' -count=1 -v

# Coverage floor over the internal packages (the simulation engine). The
# floor is the measured total at the time the gate was added, rounded down —
# raise it when coverage genuinely grows, never lower it to make a PR pass.
COVER_FLOOR ?= 74.0

cover-check:
	$(GO) test -short -coverprofile=$(or $(TMPDIR),/tmp)/cover_internal.out ./internal/...
	@total=$$($(GO) tool cover -func=$(or $(TMPDIR),/tmp)/cover_internal.out | awk '/^total:/ {sub(/%/,"",$$NF); print $$NF}'); \
	echo "internal/... coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(COVER_FLOOR))}" || { echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# The repository's benchmark: every workload, timed then traced (see
# bench/README.md). Writes under bench/out/.
bench:
	$(GO) run ./bench -all

# The house rule — "a perf claim is a same-host alternating `bench -compare`
# table" — as one command: export BASE into .bench_build/base, run each
# WORKLOAD (a space-separated list) PAIRS times in both trees through
# bench/run.sh (at the 10 s BENCHMARK.json fixes), the side that goes first
# alternating per pair, and print the `bench -compare` rows of those workloads
# (from the binary run.sh just built here); a regression verdict fails the
# target.
#   make bench-pairs WORKLOAD=h6-un-low PAIRS=10 BASE=HEAD~1 SEED=7
# The change side is the working tree as it stands. BASE is a `git archive`
# export, not a worktree: nothing to register or prune, and `make clean`
# removes it with the rest of .bench_build.
WORKLOAD ?= h6-un-low
PAIRS ?= 10
BASE ?= HEAD~1
SEED ?= 7
bench-pairs:
	@set -e; base=$(CURDIR)/.bench_build/base; out=$(CURDIR)/.bench_build/pairs; \
	rm -rf $$base $$out; mkdir -p $$base $$out; \
	git archive $(BASE) | tar -x -C $$base; \
	run() { (cd $$1 && bash bench/run.sh --workload $$3 --seed $(SEED) --seconds 10 --trace 0 -out $$out/$$2.ndjson) > $$out/last.log 2>&1 \
		|| { cat $$out/last.log; exit 1; }; echo "$$3 $$2 $$(tail -1 $$out/last.log | cut -c1-100)"; }; \
	for wl in $(WORKLOAD); do for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then run $$base parent $$wl; run $(CURDIR) change $$wl; \
		else run $(CURDIR) change $$wl; run $$base parent $$wl; fi; \
	done; done; \
	$(CURDIR)/.bench_build/bench -compare $$out/parent.ndjson $$out/change.ndjson > $$out/compare.txt || true; \
	grep -E "^(workload|$$(echo $(WORKLOAD) | tr ' ' '|')) " $$out/compare.txt | tee $$out/table.txt; \
	! grep -q regression $$out/table.txt

# Rebuild every golden trace fixture (testdata/golden_*.json) from the
# serial reference engine. Run after a deliberate physics change — e.g. a
# new RNG derivation order — then inspect the diff; the non-serial variants
# still compare against the rewritten file in the same run, so a divergence
# between engines fails even while regenerating.
golden-regen:
	$(GO) test ./internal/network -run TestGoldenTrace -update-golden -count=1

# Regenerate every paper figure at laptop scale (h=3) with SVG charts.
figures:
	$(GO) run ./cmd/experiments -fig all -h 3 -points 8 -svg figures

# Paper-scale (h=6, 5256 nodes) headline figure; -workers engages the
# group-stealing pool on multicore hosts (bit-identical results either way).
figures-h6:
	$(GO) run ./cmd/experiments -fig fig5 -h 6 -points 6 -workers 4

# Run the sweep service: HTTP/JSON experiment requests with a
# determinism-backed result cache (see docs/ARCHITECTURE.md "The sweep
# service"). SWEEPD_DIR persists results + warm snapshots across restarts.
SWEEPD_DIR ?= ./sweepd-cache
serve:
	$(GO) run ./cmd/sweepd -addr :8080 -disk $(SWEEPD_DIR)

# Service smoke: the end-to-end server tests — cold sweep matches
# RunLoadSweepOpt byte-for-byte, repeated request is served from cache with
# no simulation, concurrent identical requests coalesce onto one simulation,
# overload sheds 429, cached lines reach the client before a miss completes,
# a disconnected client frees its handler, failed disk writes are counted
# and survived, the appended NDJSON lines equal json.Encoder's, transient
# and burst requests are served, cached and keyed apart from steady ones, a
# repeated body is answered from the bounded request memo exactly as if
# resolved afresh (a forced hash collision included) with three allocations,
# a body over 1 MiB is refused, a point whose window delivered nothing is
# answered with null latencies and cached like any other, and the summary's
# elapsed_us counts a slow body's read.
smoke-serve:
	$(GO) test -run 'TestServer|TestConcurrentIdentical|TestOverload|TestDiskPersistence|TestPointLineMatchesEncoder|TestSectionRequestsCached|TestMemo|TestBodyCap|TestAllHitRequestAllocs|TestEmptyWindowPointCached|TestSummaryElapsedCoversBody' -v ./internal/service

# Trace record/replay smoke: record a run's generated packets with ofarsim
# -trace-out, replay the file with -trace-in, and require the two grant
# digests to match bit for bit (the tentpole determinism claim, end to end
# through the CLI).
smoke-trace:
	$(GO) build -o $(or $(TMPDIR),/tmp)/ofarsim-smoke ./cmd/ofarsim
	$(or $(TMPDIR),/tmp)/ofarsim-smoke -h 2 -routing OFAR -pattern ADV+1 -load 0.4 \
		-warmup 500 -measure 1000 -trace-out $(or $(TMPDIR),/tmp)/smoke.trace -q \
		| tee $(or $(TMPDIR),/tmp)/smoke_record.txt
	$(or $(TMPDIR),/tmp)/ofarsim-smoke -h 2 -trace-in $(or $(TMPDIR),/tmp)/smoke.trace \
		-warmup 500 -measure 1000 -q | tee $(or $(TMPDIR),/tmp)/smoke_replay.txt
	@rec=$$(grep 'grant digest' $(or $(TMPDIR),/tmp)/smoke_record.txt); \
	rep=$$(grep 'grant digest' $(or $(TMPDIR),/tmp)/smoke_replay.txt); \
	echo "record: $$rec"; echo "replay: $$rep"; \
	[ -n "$$rec" ] && [ "$$rec" = "$$rep" ] || { echo "trace replay digest mismatch"; exit 1; }

# CLI smoke (h=2, seconds): the contracts the CLIs share with the library,
# end to end. A sweep run twice against one -checkpoint/-restore directory
# prints identical CSV and the second run restores every point, and so does a
# two-seed replicated sweep checkpointed by one run and restored by the next;
# an ofarsim
# job-set point checkpointed into a directory and then restored from it
# prints the identical report, the second run restoring it; a -dump-config
# file fed back through -config reproduces the flag run's -q row; -workers 4
# changes no byte of the report; and the report header shows the effective
# configuration (no escape ring under -routing min).
SMOKE := $(or $(TMPDIR),/tmp)/ofar-smoke-cli
smoke-cli:
	rm -rf $(SMOKE) && mkdir -p $(SMOKE)
	$(GO) build -o $(SMOKE)/ ./cmd/ofarsim ./cmd/sweep
	@cd $(SMOKE) && set -e; \
	sw="./sweep -h 2 -routing OFAR -pattern ADV+1 -from 0.1 -to 0.5 -points 3 -warmup 500 -measure 1000 -checkpoint warm -restore warm"; \
	$$sw > cold.csv 2> cold.log; $$sw > warm.csv 2> warm.log; cat warm.log; \
	cmp cold.csv warm.csv; \
	grep -q '3 point(s) restored (1500 warmup cycles skipped), 0 warmed' warm.log; \
	rep="./sweep -h 2 -routing OFAR -pattern UN -from 0.1 -to 0.5 -points 3 -warmup 500 -measure 1000 -seeds 2"; \
	$$rep -checkpoint seeds > seeds_cold.csv 2> seeds_cold.log; $$rep -restore seeds > seeds_warm.csv 2> seeds_warm.log; cat seeds_warm.log; \
	cmp seeds_cold.csv seeds_warm.csv; \
	grep -q '6 point(s) restored (3000 warmup cycles skipped), 0 warmed' seeds_warm.log; \
	job="-h 2 -jobs a2a:12@0.5,ring:12@0.2 -load 0.8 -warmup 500 -measure 1000"; \
	./ofarsim $$job -checkpoint jobwarm > jobs_cold.txt 2> jobs_cold.log; \
	./ofarsim $$job -restore jobwarm > jobs_warm.txt 2> jobs_warm.log; cat jobs_warm.log; \
	cmp jobs_cold.txt jobs_warm.txt; \
	grep -q '1 point(s) restored (500 warmup cycles skipped), 0 warmed' jobs_warm.log; \
	sim="-pattern UN -load 0.3 -warmup 500 -measure 1000"; \
	./ofarsim -h 2 -routing OFAR -seed 5 $$sim -q > flags.row; \
	./ofarsim -h 2 -routing OFAR -seed 5 -dump-config > cfg.json; \
	./ofarsim -config cfg.json $$sim -q > config.row; \
	cmp flags.row config.row; \
	./ofarsim -h 2 -routing OFAR $$sim > serial.txt; \
	./ofarsim -h 2 -routing OFAR $$sim -workers 4 > pool.txt; \
	cmp serial.txt pool.txt; \
	./ofarsim -h 2 -routing min $$sim | tee min.txt | head -1; \
	head -1 min.txt | grep -q 'escape ring: none'; \
	echo "smoke-cli: ok"

# Every fuzz target, as package:Target — the one list `make fuzz` and CI's
# "Fuzz smoke" run. Go takes one -fuzz target per invocation, so each gets
# FUZZTIME of exploration on its own (CI passes FUZZTIME=10s).
FUZZ_TARGETS = .:FuzzParsePattern .:FuzzParallelConservation .:FuzzFaultSchedule \
	.:FuzzRouteCache .:FuzzConfigFromJSON ./internal/topology:FuzzTopologyInvariants \
	./internal/network:FuzzSnapshotRoundTrip ./internal/simcore:FuzzCodecDecode \
	./internal/trace:FuzzTraceRoundTrip ./internal/service:FuzzExperimentDecode
FUZZTIME ?= 30s

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "$${t#*:} ($${t%%:*}, $(FUZZTIME))"; \
		$(GO) test -run=NONE -fuzz="^$${t#*:}\$$" -fuzztime=$(FUZZTIME) $${t%%:*}; \
	done

# Removes untracked build output only — figures/ holds committed SVGs.
clean:
	rm -rf .bench_build bench/out test_output.txt bench_output.txt
	rm -f $(notdir $(wildcard cmd/*))
