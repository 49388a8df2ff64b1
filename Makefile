GO ?= go

.PHONY: all build test race chaos fuzz vet fmt tcb check bench-smoke experiments benchmark-quick clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file (benchmark/ included) is not gofmt-clean, when a
# result file is committed at the root (a number comes from a benchmark/
# run, not from a BENCH_*.json that goes stale), or when DESIGN.md passes
# 40 KB: it describes the code as it is, by subsystem, and CHANGES.md keeps
# the history.
fmt:
	test -z "$$(gofmt -l .)"
	test -z "$$(git ls-files 'BENCH_*.json')"
	test "$$(wc -c < DESIGN.md)" -le 40960

# The trusted computing base of DESIGN.md §8, counted as its table is:
# non-blank, non-comment, non-test Go per package. TCB_BUDGET is the total
# as of the last change to it; a change that pushes the total past it says
# in DESIGN.md what the lines buy and raises the figure here.
TCB_PKGS = internal/verifier internal/cfg internal/kie internal/compile \
	internal/vm internal/heap internal/alloc internal/locks
TCB_BUDGET = 4802

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

# Every test in the tree, once, under the race detector and never from the
# test cache: there is no second target that re-runs a subset of these.
race:
	$(GO) test -race -count=1 ./...

# Short-deadline chaos pass: the seeded fault-injection suite at the repo
# root with a reduced request stream (-short), bounded by a hard timeout.
chaos:
	$(GO) test -short -race -run 'TestChaos' -timeout 120s .

# Brief fuzz sessions, seven targets: the instruction codec, disassembler,
# the text-assembler front end, the verifier (no panic, same verdict twice),
# interpreter/lowered-tier equivalence, the migration cutover, and the WAL
# replay path over mutated segment bytes.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzCodecRoundtrip -fuzztime=20s ./insn/
	$(GO) test -run=NONE -fuzz=FuzzDisasm -fuzztime=20s ./insn/
	$(GO) test -run=NONE -fuzz=FuzzAssemble -fuzztime=20s ./asm/
	$(GO) test -run=NONE -fuzz=FuzzVerify -fuzztime=20s ./internal/verifier/
	$(GO) test -run=NONE -fuzz=FuzzLoweredEquivalence -fuzztime=20s .
	$(GO) test -run=NONE -fuzz=FuzzMigrateCutover -fuzztime=20s .
	$(GO) test -run=NONE -fuzz=FuzzWALReplay -fuzztime=20s ./internal/durable/

# CI-scale smoke of everything outside benchmark/ that prints a number:
# kfbench's experiment table and three of its quick model-time experiments,
# then the handler calibration behind netsim's constants and the verifier's
# and the hot path's micro-benchmarks, at a fixed iteration count. What it
# prints are not measurements; wall time on the composed path comes from
# benchmark/ alone.
bench-smoke: build
	$(GO) run ./cmd/kfbench -list
	$(GO) run ./cmd/kfbench -run tab1,tab3,abl-elision -quick
	$(GO) test -run NONE -bench BenchmarkHandler -benchtime 200x ./internal/netsim/
	$(GO) test -run NONE -bench BenchmarkVerify -benchtime 100x ./internal/verifier/
	$(GO) test -run NONE -bench BenchmarkStoreSet -benchtime 1000x ./internal/durable/
	$(GO) test -run NONE -bench 'BenchmarkHelperSpan|BenchmarkStackLoad8|BenchmarkNullRun' -benchtime 1000x ./internal/vm/
	$(GO) test -run NONE -bench BenchmarkSupervisorRun -benchtime 1000x -cpu 2 ./internal/supervisor/
	$(GO) test -run NONE -bench BenchmarkGetHit -benchtime 200000x ./internal/apps/offload/
	$(GO) test -run NONE -bench BenchmarkColdLoad -benchtime 20x -benchmem ./internal/apps/offload/

# The model-time figures at -quick (about a minute), rewritten into their
# committed golden. Each is a pure function of seeds and counted work, so CI
# runs this and fails on any diff: a change that moves a figure recaptures
# the file, and EXPERIMENTS.md's measured columns with it.
experiments:
	$(GO) run ./cmd/kfbench -run fig2,fig3,fig4,fig7 -quick > internal/bench/testdata/figures_quick.txt

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
