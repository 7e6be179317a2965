GO ?= go

DIST_PKGS = ./internal/par/... ./internal/transport/... ./internal/cluster/... ./internal/dkv/... ./internal/store/... ./internal/engine/... ./internal/dist/... ./internal/serve/... ./internal/obs/... ./internal/core/... ./internal/svi/... ./internal/trainer/...

.PHONY: build fmt vet test race bench-check live loc check

build:
	$(GO) build ./...

# fmt fails if any file is not gofmt-clean (prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs every package with concurrent code under the race detector:
# the distribution stack (the failure-propagation tests and the parity
# matrix are only meaningful with it on — the matrix's pipeline cells
# exercise the double-buffered load/compute overlap), internal/obs (the
# mutex-guarded phase table and recorder), internal/core (the pipelined
# loader and compute report to the observer from two goroutines),
# internal/svi (its sweeps run on par workers) and internal/trainer (the
# ocd-train program end to end: sink, monitor, query server
# and every rank in one process).
race:
	$(GO) test -race $(DIST_PKGS)

# bench-check compiles and tests the frozen benchmark module. bench/ is a
# second Go module (replace repro => ../) that `go build ./...` does not see,
# so an internal rename that breaks it must fail here, not in the benchmark
# pipeline. The benchmark itself is `bash bench/run.sh`.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# live runs the reachability check (liveset_test.go): every non-test
# declaration outside bench/ is reachable from a func main under cmd/ or
# examples/, from bench/, or is a test oracle named in liveset_allow.txt. It
# type-checks the standard library from source (CGO off: no cgo tool needed),
# which `go test ./...` should not pay for, hence the env-var gate.
live:
	CGO_ENABLED=0 OCD_LIVESET=1 $(GO) test -count=1 -run '^TestLiveSet$$' .

# loc prints the non-test Go line count outside bench/ — the number the
# "collapse parallel mechanisms" roadmap item is measured in.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

check: fmt vet build race test bench-check live
