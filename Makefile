GO ?= go

.PHONY: build test race bench smoke ci fmt vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# Start pinocchiod on an ephemeral port, hit it, shut it down.
smoke:
	sh scripts/smoke.sh

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

ci:
	sh scripts/ci.sh
