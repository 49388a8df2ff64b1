GO ?= go

.PHONY: all build test race chaos fuzz vet fmt tcb loc reach check bench-smoke experiments benchmark-quick clean

all: build

build:
	$(GO) build ./...

# benchmark/ is a module of its own that `go vet ./...` never sees; it is
# vetted here too, so a library API change that breaks it fails the gate.
vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

# Fails when any file (benchmark/ included) is not gofmt-clean, when a
# result file is committed at the root (a number comes from a benchmark/
# run, not from a BENCH_*.json that goes stale), or when DESIGN.md passes
# 36 KB: it describes the code as it is, by subsystem, and CHANGES.md keeps
# the history.
fmt:
	test -z "$$(gofmt -l .)"
	test -z "$$(git ls-files 'BENCH_*.json')"
	@n=$$(wc -c < DESIGN.md); test $$n -le 36864 || \
		{ echo "fmt: DESIGN.md is $$n bytes, over its 36864-byte cap"; exit 1; }

# One line count for `make tcb` and `make loc`: non-blank, non-comment,
# non-test Go lines of each package directory in $$dirs, printed one per
# line in a column $$w wide and summed into $$total.
COUNT_LINES = total=0; for d in $$dirs; do \
		n=$$(ls $$d/*.go | grep -v '_test\.go$$' | xargs cat | \
			grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'); \
		printf '%-*s %5d\n' $$w $$d $$n; total=$$((total + n)); \
	done

# The trusted computing base of DESIGN.md §8, counted as its table is.
# TCB_BUDGET is the total as of the last change to it; a change that pushes
# the total past it says in DESIGN.md what the lines buy and raises the
# figure here.
TCB_PKGS = internal/verifier internal/cfg internal/kie internal/compile \
	internal/vm internal/heap internal/alloc internal/locks
TCB_BUDGET = 4746

tcb:
	@dirs="$(TCB_PKGS)"; w=20; $(COUNT_LINES); \
	printf '%-20s %5d (budget $(TCB_BUDGET))\n' total $$total; \
	test $$total -le $(TCB_BUDGET)

# The same count over every package outside benchmark/ (the root is "."):
# the size figure CHANGES.md and ROADMAP.md quote.
loc:
	@dirs=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
		! -path '*/testdata/*' | sed 's|^\./||; s|/[^/]*$$||; s|^[^/]*\.go$$|.|' | sort -u); \
	w=28; $(COUNT_LINES); printf '%-28s %5d\n' total $$total

# Code no binary links. Every main package and benchmark/ are built with
# inlining off, so each function a binary reaches keeps a text symbol, and
# `go tool nm` lists them; a function declared outside _test.go files and
# benchmark/ that none of them links must be on REACH_LIST, under a heading
# that says why it is kept. A line that is a bare import path lists a whole
# package. Fails on an unreached name not listed, on a listed name a binary
# now links, and on a listed name declared nowhere. Both sides spell a
# generic type's parameters as [...], and a generic function's not at all.
REACH_LIST = testdata/unreached.txt

reach:
	@t=$$(mktemp -d) && trap 'rm -rf "$$t"' EXIT && \
	$(GO) build -gcflags=all=-l -o $$t/ ./cmd/... ./examples/... && \
	$(GO) build -C benchmark -gcflags=all=-l -o $$t/benchmark . && \
	for b in $$t/*; do $(GO) tool nm $$b; done | \
		sed -nE 's/^ *[0-9a-f]+ [Tt] ((kflex|main)[./].*)$$/\1/p' | \
		awk '{ s = ""; d = 0; \
			for (i = 1; i <= length($$0); i++) { c = substr($$0, i, 1); \
				if (c == "[") { if (d++ == 0) s = s "[...]" } \
				else if (c == "]") d--; else if (d == 0) s = s c } \
			sub(/\[\.\.\.\]$$/, "", s); print s }' | sort -u > $$t/reached && \
	git ls-files '*.go' ':!:*_test.go' ':!:benchmark/*' | xargs awk ' \
		FNR == 1 { pkg = FILENAME; sub(/\/?[^\/]*$$/, "", pkg); \
			pkg = pkg == "" ? "kflex" : "kflex/" pkg } \
		/^package main$$/ { pkg = "main" } \
		/^func / { s = substr($$0, 6); r = ""; \
			if (s ~ /^\(/) { r = substr(s, 2, index(s, ")") - 2); \
				s = substr(s, index(s, ")") + 2); \
				sub(/^[A-Za-z0-9_]+ /, "", r); gsub(/\[[^]]*\]/, "[...]", r); \
				r = r ~ /^\*/ ? "(" r ")." : r "." } \
			match(s, /^[A-Za-z0-9_]+/); print pkg "." r substr(s, 1, RLENGTH) }' | \
		sort -u > $$t/declared && \
	out=$$(awk 'function pkg(n) { match(n, /^[^.]*/); return substr(n, 1, RLENGTH) } \
		FILENAME == ARGV[1] { if (!/^(#|$$)/) want[$$0] = 1; next } \
		FILENAME == ARGV[2] { decl[$$0] = 1; dpkg[pkg($$0)] = 1; next } \
		{ reach[$$0] = 1 } \
		END { for (n in decl) { if (n ~ /\.init$$/) continue; \
				if (n in reach) { if (n in want || pkg(n) in want) \
					print "reach: " n " is listed, but a binary links it" } \
				else if (!(n in want) && !(pkg(n) in want)) \
					print "reach: no binary links " n "; call it, or list it under a heading" } \
			for (n in want) if (!(n in decl) && !(n in dpkg)) \
				print "reach: " n " is listed, but declared nowhere" }' \
		$(REACH_LIST) $$t/declared $$t/reached | sort) && \
	{ test -z "$$out" || { echo "$$out"; exit 1; }; } && \
	echo "reach: $$(grep -cv '^\(#\|$$\)' $(REACH_LIST)) listed lines, every unreached name on them"

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
# the verifier (no panic, same verdict twice), the lowered tier against the
# reference semantics (internal/refsem), the migration cutover, the WAL
# replay path over mutated segment bytes, and the growing KV table against
# a map.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzCodecRoundtrip -fuzztime=20s ./insn/
	$(GO) test -run=NONE -fuzz=FuzzDisasm -fuzztime=20s ./insn/
	$(GO) test -run=NONE -fuzz=FuzzVerify -fuzztime=20s ./internal/verifier/
	$(GO) test -run=NONE -fuzz=FuzzLoweredEquivalence -fuzztime=20s .
	$(GO) test -run=NONE -fuzz=FuzzMigrateCutover -fuzztime=20s .
	$(GO) test -run=NONE -fuzz=FuzzWALReplay -fuzztime=20s ./internal/durable/
	$(GO) test -run=NONE -fuzz=FuzzKVGrow -fuzztime=20s ./internal/apps/offload/

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
	$(GO) test -run NONE -bench 'BenchmarkStoreRange|BenchmarkStoreRecover|BenchmarkStoreSnapshot' -benchtime 10x ./internal/durable/
	$(GO) test -run NONE -bench 'BenchmarkHelperSpan|BenchmarkStackLoad8|BenchmarkNullRun' -benchtime 1000x ./internal/vm/
	$(GO) test -run NONE -bench BenchmarkOffloaded -benchtime 20000x ./internal/ds/
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

# The pre-merge gate: gofmt, vet, build, the TCB line budget, the list of
# code no binary links, the full test suite under the race detector
# (includes the chaos suite), then the short chaos pass alone to keep its
# deadline honest.
check: fmt vet build tcb reach race chaos

clean:
	$(GO) clean -testcache
