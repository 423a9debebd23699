# Convenience targets; everything is plain `go` underneath.

.PHONY: all check build vet test race bench-module chaos serve-chaos bench bench-smoke docs-lint trace-demo report figures examples loc clean

all: build vet test

# check is the pre-merge gate: build, vet, the full suite, the race
# detector over the concurrent fault-tolerance paths, and the benchmark
# module. The chaos tests run inside `test`/`race` with fixed injector
# seeds, so the gate is deterministic.
check: build vet test race bench-module

# Just the chaos suite (fault injection against the live Hadoop engine).
chaos:
	go test ./internal/hadoop/ -run TestChaos -v

# The job-service chaos suite under the race detector, on MPI-D, whose
# ranks cannot be lost without the process: cancel, deadline, a failing,
# panicking or vanished rank — on the runtime, its mpi substrate and
# through the service — each ending in the failure's own error with no
# goroutine left behind, a panicking mapper or reducer failing its own job
# and no other, and a panicking job watched through the service's flight
# recorder and /healthz.
serve-chaos:
	go test -race ./internal/serve/ -run 'TestChaos|TestDrain|TestMapperPanicFailsJobOnly' -v
	go test -race ./internal/mapred/ -run 'TestContext|TestRankFailureEndsJob|TestReducerFailureLeavesNoResult' -v
	go test -race ./internal/mpi/ -run 'TestAbortCause|TestRun' -v

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# bench/ is its own module (it must build from a bare checkout), so `./...`
# above never compiles it: an engine API change that breaks the benchmark
# would otherwise surface only when the benchmark next runs.
bench-module:
	go vet -C bench ./...
	go test -C bench ./...

# Full benchmark run: every Go benchmark, then the repo benchmark
# (BENCHMARK.json; bench/README.md) — four workloads, each ending in one
# JSON object on stdout.
bench:
	go test -bench=. -benchmem ./...
	bash bench/run.sh

# One iteration of every Go benchmark — a CI smoke test that the benchmark
# code still compiles and runs, without the timing noise of a real run.
bench-smoke:
	go test -bench=. -benchtime=1x ./...

# Documentation lint: every internal package must carry a package doc
# comment, every local markdown link in the top-level docs must resolve,
# and every `go run ./<dir>` here, in README.md and in the verify skill
# must name a directory. Backed by docs_test.go so `go test ./...`
# enforces it too.
docs-lint:
	go test -run 'TestPackageDocs|TestCommandDocs|TestMarkdownLinks|TestGoRunTargets|TestDocSections' .

# End-to-end tracing demo: run a WordCount over this Makefile's README on
# the live hadoop engine and then on MPI-D, each with span collection on,
# check that each exported JSON will load in chrome://tracing (mpid-job
# fails if it will not), and print its statistics, the ASCII timeline and
# the final metrics.
trace-demo:
	go run ./cmd/mpid-job -job wordcount -input README.md -engine hadoop \
		-param split=4096 -mappers 2 -trace trace-demo.json -metrics -top 5
	go run ./cmd/mpid-job -job wordcount -input README.md -engine mpid \
		-param split=4096 -mappers 2 -trace trace-demo-mpid.json -metrics -top 5

# Full paper reproduction (150 GB Table I sweep, 100 GB Figure 6 sweep).
report:
	go run ./cmd/mpid-report

# The whole evaluation in one command: every model table, each followed by
# the same figure measured live on this machine (Figures 2 and 3 over
# loopback, Figure 1 and Figure 6 on the real engines). About half a minute.
figures:
	go run ./cmd/mpid-report -live

examples:
	go run ./examples/quickstart
	go run ./examples/distributedsort
	go run ./examples/invertedindex
	go run ./examples/pagerank

# The line counts ROADMAP.md's "State at PR N" quotes: non-test Go outside
# bench/, the four engine packages, the simulation stack, tests, and bench/.
loc:
	@printf 'non-test Go outside bench/  %6d\n' $$(git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' | xargs cat | wc -l)
	@printf 'core+hadoop+mapred+mpi      %6d\n' $$(git ls-files 'internal/core/*.go' 'internal/hadoop/*.go' 'internal/mapred/*.go' 'internal/mpi/*.go' | grep -v '_test\.go$$' | xargs cat | wc -l)
	@printf 'des+netmodel+sim            %6d\n' $$(git ls-files 'internal/des/*.go' 'internal/netmodel/*.go' 'internal/sim/*.go' | grep -v '_test\.go$$' | xargs cat | wc -l)
	@printf 'tests                       %6d\n' $$(git ls-files '*_test.go' | grep -v '^bench/' | xargs cat | wc -l)
	@printf 'bench/                      %6d\n' $$(git ls-files 'bench/*.go' | xargs cat | wc -l)

clean:
	go clean ./...
	rm -f trace-demo.json trace-demo-mpid.json
