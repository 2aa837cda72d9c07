#!/bin/sh
# check.sh — the full local gate: vet, the repo-specific static-analysis
# suite, build, tests, a short race pass over the packages with real
# concurrency, and bounded repeats of tests that once failed only
# intermittently. CI and pre-commit hooks should run exactly this.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== ermia-vet (atomicmix, cancelpoll, epochguard, errclass, hotalloc, lockorder, nodeterminism, txnlifecycle, wirecompat) =="
if ! go run ./cmd/ermia-vet ./...; then
	echo "" >&2
	echo "check.sh: ermia-vet found invariant violations (listed above)." >&2
	echo "Fix each finding or suppress a justified exception with" >&2
	echo "'//ermia:allow <analyzer> <reason>' on the offending line." >&2
	echo "A wirecompat finding for a genuinely new message or status means" >&2
	echo "the registry snapshot needs appending: run" >&2
	echo "'go run ./cmd/ermia-vet -update-wire-golden' and commit the result." >&2
	echo "See DESIGN.md, section 'Static analysis'." >&2
	exit 1
fi

echo "== allocation budgets (AllocsPerRun, hot-path encode/decode/mvcc) =="
# The hotalloc analyzer above gates //ermia:hotpath functions to zero heap
# escapes at compile time; these tests pin the per-op allocation count of
# the functions whose allocations are intentional (frame read/write,
# response building, version creation) so they cannot silently grow.
go test -count=1 -run 'TestAllocBudgets|TestRespPayloadAllocBudget' \
	./internal/proto/ ./internal/mvcc/ ./internal/server/

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (the packages with real concurrency; -short) =="
# Keep this list in step with RACE_PKGS in the Makefile (make race).
go test -race -short -count=1 ./internal/core/ ./internal/wal/ ./internal/epoch/ \
	./internal/engine/ ./internal/server/ ./internal/client/ ./internal/repl/ \
	./internal/faultconn/ ./internal/query/ ./internal/shard/

echo "== bounded repeats (tests that once failed only intermittently) =="
# TestConcurrentInquire caught Inquire reporting a released slot as valid
# about once in 30 runs; TestSeededReplicaRestart caught Replica.Close
# hanging on a connection dialed while the replica was being sealed. A
# single pass of either rarely shows a regression, so each repeats here
# under a bound that keeps the step short.
go test -count=200 -run '^TestConcurrentInquire$' ./internal/txnid/
go test -count=30 -timeout 60s -run '^TestSeededReplicaRestart$' ./internal/repl/

echo "== nemesis smoke (fixed seeds, -race) =="
# A bounded chaos sweep: every seed replays a deterministic fault schedule
# (partitions, cuts, crashes, supervised failovers) against a primary +
# replica cluster under retrying load, and must lose no acked commit, show
# no snapshot regression, and never ack writes under one epoch on two
# primaries. A failing seed's schedule is printed by the test; replay it
# with nemesis.Run(nemesis.Config{Seed: <seed>}). The shard variant
# (TestShardNemesis*) does the same to a two-shard fleet + 2PC router,
# crashing the coordinator between prepare and decision, and must conserve
# cross-shard balance totals, keep every acked transfer, and drain the
# decision log after healing; replay with nemesis.RunShard.
go test -race -count=1 ./internal/nemesis/

echo "== fuzz smoke (FuzzCheckpointBlob + FuzzQueryPlan, 10s each) =="
# The other fuzz targets' seed corpora already run inside `go test` above;
# these two get a short mutation run locally too because their attack
# surfaces (replica seeding, query-plan decoding) accept bytes straight
# off the wire.
go test ./internal/core/ -run='^$' -fuzz='^FuzzCheckpointBlob$' -fuzztime=10s
go test ./internal/query/ -run='^$' -fuzz='^FuzzQueryPlan$' -fuzztime=10s

echo "== replication soak (30s, -race) =="
ERMIA_REPL_SOAK=30s go test -race -count=1 -run TestReplicationSoak ./internal/repl/

echo "ok: all checks passed"
