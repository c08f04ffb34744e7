GO ?= go
# The non-test source line count (`make loc`) may not pass this.
LOC_CEILING = 18611

.PHONY: help check build vet fmt-check test golden loc loc-check benchmark-smoke race bench bench-smoke bench-profile alloc-gate fuzz-smoke clockcheck chaos chaos-smoke crash-sweep serve-smoke scrub-smoke shard-smoke examples bench-record identical cover-faults

help: ## list targets
	@awk -F':.*## ' '/^[a-z-]+:.*## /{printf "%-12s %s\n", $$1, $$2}' Makefile

check: fmt-check vet build loc-check golden race clockcheck bench-smoke benchmark-smoke alloc-gate crash-sweep serve-smoke scrub-smoke shard-smoke examples ## everything CI's check job runs

build: ## go build ./...
	$(GO) build ./...

vet: ## stdlib go vet
	$(GO) vet ./...

fmt-check: ## fail on gofmt drift
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test: ## go test ./...
	$(GO) test ./...

golden: ## rendered sweep/figure/soak reports vs testdata/golden (regenerate: go test -run TestGolden -update .)
	$(GO) test -count=1 -run 'TestGolden' .

loc: ## non-test .go lines outside benchmark/ (the number simplicity PRs report)
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l

loc-check: ## fail when `make loc` exceeds LOC_CEILING (a PR that must grow the tree raises it and says why)
	@n=$$($(MAKE) -s loc); if [ "$$n" -gt $(LOC_CEILING) ]; then echo "make loc reads $$n, ceiling is $(LOC_CEILING)"; exit 1; fi

benchmark-smoke: ## two seconds each of the five repo benchmark workloads: one-shard, full-SSD (write-through reclaim), wrapping-log writeback, 4-shard and served over TCP (exit status only)
	$(GO) run ./benchmark -workload oltp -seed 1 -seconds 2 -trace 0 >/dev/null
	$(GO) run ./benchmark -workload mail -seed 1 -seconds 2 -trace 0 >/dev/null
	$(GO) run ./benchmark -workload randwrite-qd8 -seed 1 -seconds 2 -trace 0 >/dev/null
	$(GO) run ./benchmark -workload randread-shards4 -seed 1 -seconds 2 -trace 0 >/dev/null
	$(GO) run ./benchmark -workload serve-tcp -seed 1 -seconds 2 -trace 0 >/dev/null

race: ## go test -race ./...
	$(GO) test -race ./...

bench: ## one iteration of every testing.B benchmark in the root package
	$(GO) test -bench . -benchtime 1x -run '^$$' .

bench-smoke: ## one iteration of every figure benchmark
	$(GO) test -bench=Fig -benchtime=1x -run '^$$' .

bench-profile: ## full figure suite with CPU + heap profiles (cpu.prof, mem.prof)
	$(GO) run ./cmd/icash-bench -run all -cpuprofile cpu.prof -memprofile mem.prof
	@echo "profiles written: cpu.prof mem.prof (inspect with: go tool pprof cpu.prof)"

alloc-gate: ## hot-path allocation gates + allocs/op and B/op benchmarks (codec MB/s per shape, write path) + miss-and-evict, similarity-probe, write-through-reclaim and idle-scan scaling + the scan's probe index against the linear probe (must run WITHOUT -race)
	$(GO) test -run 'TestAllocGate' -count=1 ./internal/delta/ ./internal/blockdev/ ./internal/workload/ ./internal/harness/
	$(GO) test -run 'TestAllocGate' -count=1 ./internal/core/ -args -timing-gates
	$(GO) test -bench 'AppendEncode|AppendDecode|Size' -benchtime 1000x -benchmem -run '^$$' ./internal/delta/
	$(GO) test -bench 'ReadMissEvict|WriteDelta|SimilarProbe|WriteThroughReclaim|ScanIdleWindow' -benchtime 20000x -benchmem -run '^$$' ./internal/core/
	$(GO) test -bench 'ScanProbe' -benchtime 200x -benchmem -run '^$$' ./internal/core/

fuzz-smoke: ## 10s per fuzz target, seeded from testdata corpora
	$(GO) test ./internal/delta -fuzz FuzzDeltaRoundTrip -fuzztime 10s
	$(GO) test ./internal/delta -fuzz FuzzSegmentation -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzLogReplay -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzJournalReplay -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzRecover -fuzztime 10s
	$(GO) test ./internal/server -fuzz FuzzFrameRoundTrip -fuzztime 10s
	$(GO) test ./internal/server -fuzz FuzzSessionBytes -fuzztime 10s
	$(GO) test ./internal/fault/crashtest -fuzz FuzzSpec -fuzztime 10s
	$(GO) test ./internal/blockdev -fuzz FuzzStore -fuzztime 10s
	$(GO) test ./internal/blockdev -fuzz FuzzPatch -fuzztime 10s

crash-sweep: ## crash-point recovery sweeps (fail-stop, fail-slow, 2- and 4-shard flush barrier; journal-audited, checked against internal/spec)
	$(GO) test -count=1 -run 'TestCrash|TestNoCrashBaseline' ./internal/fault/crashtest/

serve-smoke: ## block-service battery under -race: conformance, served-vs-inproc, crash sweep
	$(GO) test -race -count=1 ./internal/server/

clockcheck: ## sim, harness and server tests with the runtime clock-ownership assertion (a shard group's clock, the frozen system clock and a served run's pump each have one mutating goroutine)
	$(GO) test -tags clockcheck ./internal/sim/ ./internal/harness/ ./internal/server/

chaos: ## 20-seed chaos soak (fail-slow + fail-stop, oracle-checked)
	$(GO) run ./cmd/icash-bench -chaos

scrub-smoke: ## seeded silent-corruption battery under -race: checksums, scrubber, verified repair
	$(GO) test -race -count=1 -run 'TestChaosSilent|TestChaosScrub' ./internal/fault/chaos/
	$(GO) run ./cmd/icash-bench -bitrot -seeds 5 -chaosops 1000

chaos-smoke: ## fixed-seed chaos battery under the race detector
	$(GO) test -race -count=1 -run 'TestChaos|TestDetector|TestSchedule' ./internal/fault/...

shard-smoke: ## sharded-controller battery under -race: routing, shard groups pinned to the one-loop run, scoreboard equality across worker counts, the 4-shard scratch bound, shard-scoped chaos, scaling sweep
	$(GO) test -race -count=1 -run 'TestShard|TestRunGroups|TestRunBenchmarkSharded|TestBuildSharded|TestStatsAccumulate' ./internal/core/ ./internal/harness/
	$(GO) test -race -count=1 -run 'TestScratchBounded/shards4' ./internal/core/
	$(GO) test -race -count=1 -run 'TestShardRouter|TestChaosShard' ./internal/server/ ./internal/fault/chaos/
	$(GO) run ./cmd/icash-bench -shardsweep -ops 4000

# bench-record compares the working tree against BASE (extracted from
# git into a temporary directory) on the repo benchmark.
BASE ?= HEAD
SEED ?= 42

bench-record: ## ten alternating 15 s parent/change pairs of every repo-benchmark workload, -trace 0 (BASE=HEAD SEED=42), merged into BENCH_OUT (required)
	@if [ -z "$(BENCH_OUT)" ]; then echo "bench-record: set BENCH_OUT to the trajectory file to write, e.g. BENCH_OUT=BENCH_<pr>.json"; exit 2; fi
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	git archive $(BASE) | tar -x -C "$$dir"; \
	$(GO) run ./cmd/bench-record -base "$$dir" -base-rev "$$(git rev-parse $(BASE))" -seed $(SEED) -out $(BENCH_OUT)

# identical builds icash-bench from BASE and from the working tree and
# compares their reports byte for byte. CI checks out one commit, so it
# is a local target only.
IDENTICAL_RUNS = "-run all -parallel 1" "-run all -parallel 2" "-run all -parallel 8" "-run fig15 -qd 8 -vms" "-run fig15 -qd 8 -vms -shards 4" -qdsweep -wsweep -shardsweep -serve "-serve -parallel 1" "-serve -parallel 8" "-chaos -seeds 3" "-scrub -seeds 3" "-bitrot -seeds 3" "-bitrot -seeds 3 -shards 2"

identical: ## cmp icash-bench -run all (-parallel 1, 2, 8), -run fig15 -qd 8 -vms (1 and 4 shards), -qdsweep, -wsweep, -shardsweep, -serve (default, -parallel 1, 8) and -chaos, -scrub, -bitrot (-seeds 3; -bitrot also at -shards 2) of BASE (default HEAD) against the working tree
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	git archive $(BASE) | tar -x -C "$$dir"; \
	(cd "$$dir" && $(GO) build -o "$$dir/bench-base" ./cmd/icash-bench); \
	$(GO) build -o "$$dir/bench-work" ./cmd/icash-bench; \
	fail=0; for args in $(IDENTICAL_RUNS); do \
		"$$dir/bench-base" $$args >"$$dir/base.out"; \
		"$$dir/bench-work" $$args >"$$dir/work.out"; \
		if cmp -s "$$dir/base.out" "$$dir/work.out"; then echo "identical: icash-bench $$args"; \
		else echo "DIFFERS:   icash-bench $$args"; fail=1; fi; \
	done; exit $$fail

examples: ## run all five narrated demos
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/recovery
	$(GO) run ./examples/oltp
	$(GO) run ./examples/vmimages
	$(GO) run ./examples/bitrot

# cover-faults merges two coverage profiles: a -coverpkg=./... profile
# of go test ./... and a coverage-instrumented icash-bench running the
# -chaos, -bitrot and -scrub soaks. A block counts as reached when
# either run reached it. It prints the unreached blocks of the core's
# fault-handling files and the unreached internal/core statement count:
# a report, not a gate, so it is not part of check.
COVER_FAULT_FILES = iopath.go journal.go recover.go resilience.go integrity.go scrub.go

cover-faults: ## opt-in: unreached blocks of internal/core's fault handlers after go test ./... and the -chaos/-bitrot/-scrub soaks, plus the unreached core statement count (report only)
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test -count=1 -coverpkg=./... -coverprofile="$$dir/test.out" ./... >/dev/null; \
	$(GO) build -cover -coverpkg=./... -o "$$dir/icash-bench" ./cmd/icash-bench; \
	mkdir "$$dir/cov"; \
	for m in -chaos -bitrot -scrub; do GOCOVERDIR="$$dir/cov" "$$dir/icash-bench" $$m >/dev/null; done; \
	$(GO) tool covdata textfmt -i "$$dir/cov" -o "$$dir/bench.out"; \
	cat "$$dir/test.out" "$$dir/bench.out" | awk -v files="$(COVER_FAULT_FILES)" ' \
		BEGIN { n = split(files, f, " "); for (i = 1; i <= n; i++) want["icash/internal/core/" f[i]] = 1 } \
		/^mode:/ { next } \
		{ stmts[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
		END { \
			for (b in stmts) { \
				file = b; sub(/:.*/, "", file); \
				if (file !~ /^icash\/internal\/core\/[^\/]*$$/) continue; \
				total += stmts[b]; if (b in hit) continue; \
				missed += stmts[b]; if (file in want) print b, stmts[b] | "sort -t: -k1,1 -k2,2n" \
			} \
			close("sort -t: -k1,1 -k2,2n"); \
			printf "internal/core: %d of %d statements unreached\n", missed, total \
		}'
