GO ?= go
ATMLINT := bin/atmlint

.PHONY: all build test race vet fmt lint lint-flow lint-graph lint-fixtures gcdiag bench-smoke bench-diff record-diff fuzz conformance serve serve-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector with CI's flags. Several
# packages take longer than go test's 10-minute default under -race
# on two cores, hence CI's 40-minute timeout.
race:
	$(GO) test -race -timeout 40m ./...

vet:
	$(GO) vet ./...

# fmt fails, listing the files, when gofmt would reformat any Go file
# in the tree, and fails when gofmt cannot parse one.
fmt:
	@files=$$(gofmt -l .) || exit 1; \
	if [ -n "$$files" ]; then echo "gofmt would reformat:"; echo "$$files"; exit 1; fi

# The vettool binary; rebuilt whenever the analyzer suite or driver
# changes. go vet caches per-package results keyed on the binary hash
# (-V=full), so a rebuilt tool automatically invalidates stale results.
$(ATMLINT): $(wildcard cmd/atmlint/*.go internal/lint/*.go internal/lint/gcdiag/*.go) go.mod
	$(GO) build -o $(ATMLINT) ./cmd/atmlint

# lint runs the per-package atmlint analyzer suite (determinism,
# noalloc, orderedmerge, atmdirective, syncfield) over every package.
lint: $(ATMLINT)
	$(GO) vet -vettool=$(abspath $(ATMLINT)) ./...

# lint-flow runs the interprocedural flow suite (noallocflow,
# modeledtimeflow, stalewaiver) over the whole module at once: it loads
# every package, builds the static call graph, and propagates the
# //atm:noalloc and //atm:modeled-time contracts across package
# boundaries. `make lint-flow FLOWFLAGS=-fix` lists stale waivers with
# removal instructions.
FLOWFLAGS ?=
lint-flow: $(ATMLINT)
	$(ATMLINT) flow $(FLOWFLAGS) ./...

# lint-graph dumps the static call graph of one package as DOT for
# debugging the flow analyses; pipe to dot -Tsvg to render. Example:
#   make lint-graph PKG=repro/internal/tasks
PKG ?= repro/internal/tasks
lint-graph: $(ATMLINT)
	$(ATMLINT) graph -pkg $(PKG)

# lint-fixtures runs the analyzers' own unit tests: each analyzer is
# exercised against testdata fixtures with // want expectations.
lint-fixtures:
	$(GO) test ./internal/lint/...

# gcdiag verifies the //atm:inline, //atm:noescape and //atm:nobce
# directives against the gc compiler's own diagnostics (-m -m and the
# BCE debug pass): every annotated hot function must actually inline,
# keep its locals on the stack, and compile without bounds checks.
gcdiag: $(ATMLINT)
	./scripts/gcdiag.sh

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-diff compares the hot-path benchmarks on HEAD against BASE_REF
# (default: merge base with origin/main) and fails on a >5% time or any
# allocs/op regression; `scripts/benchdiff.sh snapshot` refreshes the
# checked-in BENCH_10.json. See scripts/benchdiff.sh for tunables
# (BENCH_CPU=1,8 is the CI cell that gates both worker-pool shapes).
BASE_REF ?=
bench-diff:
	./scripts/benchdiff.sh $(BASE_REF)

# record-diff builds atmsim at BASE_REF (default: merge base with
# origin/main) and from the working tree, runs a fixed platform x pair
# source x scenario matrix on both, and fails if any -record or
# block-detail -events file differs byte for byte. A manual check, not
# a CI gate; see scripts/recorddiff.sh.
record-diff:
	./scripts/recorddiff.sh $(BASE_REF)

# fuzz runs the fuzzers for a bounded interval each on top of their
# checked-in seed corpora (internal/trace and internal/scenario
# testdata/fuzz). go test allows one -fuzz target per invocation.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=NONE -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/scenario

# conformance runs the full differential matrix: every scenario family
# x platform x pair source x worker count, asserting the invariance
# relations documented in internal/conformance. The trimmed matrix
# already runs as part of `make test`; this is the exhaustive pass.
conformance:
	$(GO) test ./internal/conformance -run TestConformance -conformance.full -timeout 30m

# serve starts the simulation service on SERVE_ADDR (see cmd/atmserve;
# curl 'localhost:8080/v1/simulate?platform=titanx&n=8000').
SERVE_ADDR ?= localhost:8080
serve:
	$(GO) run ./cmd/atmserve -addr $(SERVE_ADDR)

# serve-smoke builds atmserve, runs one request end to end, checks the
# golden measurement row and a clean SIGTERM drain — the same script CI
# runs.
serve-smoke:
	$(GO) build -o bin/atmserve ./cmd/atmserve
	./scripts/serve-smoke.sh bin/atmserve

clean:
	rm -rf bin
