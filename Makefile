GO ?= go

.PHONY: all build test race race-concurrency chaos recovery migrate fuzz vet fmt tcb check bench-smoke benchmark-quick clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file (benchmark/ included) is not gofmt-clean, or when a
# result file is committed at the root: a number comes from a benchmark/
# run, not from a BENCH_*.json that goes stale.
fmt:
	test -z "$$(gofmt -l .)"
	test -z "$$(git ls-files 'BENCH_*.json')"

# The trusted computing base of DESIGN.md §2, counted as its table is:
# non-blank, non-comment, non-test Go per package. TCB_BUDGET is the total
# as of the last change to it (PR 20); a change that pushes the total past
# it says in DESIGN.md what the lines buy and raises the figure here.
TCB_PKGS = internal/verifier internal/cfg internal/kie internal/compile \
	internal/vm internal/heap internal/alloc internal/locks
TCB_BUDGET = 4916

tcb:
	@total=0; for d in $(TCB_PKGS); do \
		n=$$(ls $$d/*.go | grep -v '_test\.go$$' | xargs cat | \
			grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'); \
		printf '%-20s %5d\n' $$d $$n; total=$$((total + n)); \
	done; \
	printf '%-20s %5d (budget $(TCB_BUDGET))\n' total $$total; \
	test $$total -le $(TCB_BUDGET)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The multi-core serving concurrency suite alone: parallel Run/RunContext
# across every CPU, the watchdog's and the audit's cover of every slot of
# the per-CPU table built at Load and the one scope rule of a cancel request
# (TestWatchdogWatchesLateHandles, TestUnresolvedSlotIsCovered,
# TestWatchdogCancelIsPerInvocation), the cancellation policy table
# (TestCancelPolicy), cross-CPU allocator
# frees, contended ticket locks and their per-heap abandoned-ticket record
# (TestAbandonedTicketsPerHeap), concurrent sub-word heap stores, the
# supervisor lifecycle under parallel traffic, the lock-free admit/drain
# pairing, the two transition rules — a reload never stalls its siblings,
# a quarantine drains before it audits — and the dirty-set gate
# (TestConcurrent*), and the whole watchdog package (its detection rule is
# what times every invocation now).
race-concurrency:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'Parallel|Concurrent|Contended|CrossCPU|LateHandles|UnresolvedSlot|CancelIsPerInvocation|CancelPolicy|AbandonedTicketsPerHeap' \
		. ./internal/alloc/ ./internal/locks/ ./internal/heap/ ./internal/supervisor/ \
		./internal/apps/offload/
	$(GO) test -race -count=1 -timeout 120s ./internal/watchdog/

# Short-deadline chaos pass: the seeded fault-injection suite at the repo
# root with a reduced request stream (-short), bounded by a hard timeout.
chaos:
	$(GO) test -short -race -run 'TestChaos' -timeout 120s .

# Durability and failover suite under the race detector: the WAL/snapshot
# engine with storage fault injection, log-shipping replication, the
# crash-consistency chaos pass, the failover determinism check, and the
# offload front end's conformance suite (cold/warm resync, recovered-store
# reports, the value-size rule) and its cold-resync dirty-mark regression
# (TestColdReload*) for both codecs.
recovery:
	$(GO) test -race -count=1 -timeout 300s ./internal/durable/...
	$(GO) test -race -count=1 -timeout 300s -run 'TestChaosDurable|TestChaosFailover|TestWarmReload|TestColdReload|TestConformance' \
		. ./internal/supervisor/ ./internal/apps/offload/

# Live-migration suite under the race detector: the migrate sequence of
# the supervisor's one transition engine (drain, audit, load, init,
# install — the functions every reload also runs) with per-phase fault
# injection and rollback, the rebalancer policy hook, and
# the root-level migration chaos pass (seeded staircase, determinism,
# migration under live traffic), and the offload front end's side of a
# cutover for both codecs: the conformance suite's migrate row, the
# acknowledge-ordering regression, and migration under concurrent traffic.
migrate:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'TestMigrate|TestRebalancer|TestChaosMigrate|TestConformance|TestFallbackSet|TestConcurrentMigrate' \
		. ./internal/supervisor/ ./internal/apps/offload/

# Brief fuzz sessions, six targets: the instruction codec, disassembler,
# the text-assembler front end, interpreter/lowered-tier equivalence, the
# migration cutover, and the WAL replay path over mutated segment bytes.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzCodecRoundtrip -fuzztime=20s ./insn/
	$(GO) test -run=NONE -fuzz=FuzzDisasm -fuzztime=20s ./insn/
	$(GO) test -run=NONE -fuzz=FuzzAssemble -fuzztime=20s ./asm/
	$(GO) test -run=NONE -fuzz=FuzzLoweredEquivalence -fuzztime=20s .
	$(GO) test -run=NONE -fuzz=FuzzMigrateCutover -fuzztime=20s .
	$(GO) test -run=NONE -fuzz=FuzzWALReplay -fuzztime=20s ./internal/durable/

# CI-scale smoke of everything outside benchmark/ that prints a number:
# kfbench's experiment table and three of its quick model-time experiments
# (the binary is otherwise never executed in CI), then the hot-path
# micro-benchmarks at a fixed iteration count. What it prints are not
# measurements; wall time on the composed path comes from benchmark/ alone.
bench-smoke: build
	$(GO) run ./cmd/kfbench -list
	$(GO) run ./cmd/kfbench -run tab1,tab3,abl-elision -quick
	$(GO) test -run NONE -bench BenchmarkStoreSet -benchtime 1000x ./internal/durable/
	$(GO) test -run NONE -bench 'BenchmarkHelperSpan|BenchmarkStackLoad8|BenchmarkNullRun' -benchtime 1000x ./internal/vm/
	$(GO) test -run NONE -bench BenchmarkSupervisorRun -benchtime 1000x -cpu 2 ./internal/supervisor/

# The performance gate (benchmark/, a Go module of its own that root
# `go test ./...` never sees): its oracle/determinism tests, then every
# workload at 1/10 of the ops and 1 s per run. A smoke test that the
# gate still builds against this tree and checks out correct — the
# numbers it prints are not measurements.
benchmark-quick:
	cd benchmark && $(GO) test ./...
	$(GO) run -C benchmark . -quick

# The pre-merge gate: gofmt, vet, build, the TCB line budget, the full test
# suite under the race detector (includes the chaos suite), then the short
# chaos pass alone to keep its deadline honest.
check: fmt vet build tcb race chaos

clean:
	$(GO) clean -testcache
