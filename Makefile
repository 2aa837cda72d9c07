GO ?= go

.PHONY: build test check race vet ermia-vet fuzz bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repo-specific static-analysis suite (internal/vet): atomicmix,
# cancelpoll, epochguard, errclass, hotalloc, lockorder, nodeterminism,
# txnlifecycle, wirecompat.
ermia-vet:
	$(GO) run ./cmd/ermia-vet ./...

# The packages with real concurrency; scripts/check.sh runs the same list.
RACE_PKGS = ./internal/core/ ./internal/wal/ ./internal/epoch/ \
	./internal/engine/ ./internal/server/ ./internal/client/ ./internal/repl/ \
	./internal/faultconn/ ./internal/query/ ./internal/shard/

race:
	$(GO) test -race -short -count=1 $(RACE_PKGS)

# The full local gate: vet + ermia-vet + build + test + short race pass.
check:
	./scripts/check.sh

# Run each fuzz target briefly beyond its seed corpus.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/codec/ -run=^$$ -fuzz=FuzzDecodeKey -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/ -run=^$$ -fuzz=FuzzDecodeTuple -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run=^$$ -fuzz=FuzzDecodeRecord -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal/ -run=^$$ -fuzz=^FuzzRecover$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run=^$$ -fuzz=^FuzzRecover$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/silo/ -run=^$$ -fuzz=^FuzzRecover$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run=^$$ -fuzz=^FuzzCheckpointBlob$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/query/ -run=^$$ -fuzz=^FuzzQueryPlan$$ -fuzztime=$(FUZZTIME)

bench:
	$(GO) test -bench=. -benchtime=1x ./...
