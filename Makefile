# Developer entry points. `make check` is the PR gate: it must pass before
# every commit (the race detector covers the parallel experiment harness).

GO ?= go

.PHONY: check build vet lint test race bench bench-json serve-smoke profile clean

check: build vet race

# Static analysis beyond vet. staticcheck and govulncheck are optional local
# tools (CI installs pinned versions); skip with a hint when absent so the
# target works on a bare toolchain.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Quick micro-benchmarks of the two hot paths (DES event loop, RCKK merge):
# the registry scenarios results/BENCH.json records, under the test driver.
bench:
	$(GO) test -run xxx -bench 'Scenarios/(Simulator|RCKK)/' -benchmem .

# Regenerate the committed performance trajectory (ns/op, allocs/op per
# scenario). Compare against the previous results/BENCH.json before merging
# performance-sensitive changes.
bench-json:
	$(GO) run ./cmd/nfvbench -out results/BENCH.json

# End-to-end smoke test of the serving daemon: boot nfvd on a random port,
# curl /healthz, run a tiny /v1/solve round-trip, and shut down gracefully.
serve-smoke:
	sh scripts/serve_smoke.sh

# Profile the large-horizon scenarios (fresh and reused Simulator) and print
# the top CPU consumers. Leaves cpu.prof/mem.prof (and the nfvchain.test
# binary pprof symbolizes from) behind for `go tool pprof -http` flame graphs;
# see the profiling workflow in EXPERIMENTS.md.
profile:
	$(GO) test -run xxx -bench 'Scenarios/Simulator/large-horizon' \
		-cpuprofile cpu.prof -memprofile mem.prof .
	$(GO) tool pprof -top -nodecount 15 cpu.prof

clean:
	$(GO) clean ./...
