#!/usr/bin/env sh
# CI gate: build everything, vet everything, and run the full test
# suite under the race detector. The race detector is mandatory — the
# serving layer (internal/server) has real concurrency: lock-free
# snapshot queries racing a mutator goroutine's atomic pointer swaps.
#
# Usage: scripts/ci.sh [extra go-test args]
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files are not formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./... $*"
go test -race "$@" ./...

# The race build intercepts memory through the shadow map, so the
# TestMappedV2 tests (unsafe views over a syscall.Mmap region) skip
# themselves there. Rerun them without -race so CI still exercises the
# actual mapping: open, zero-copy serving, budget eviction, corrupt-file
# rejection. The heap decode of the same v2 bytes IS raced above. The
# same pass reruns the facade's OpenDisk tests and the truncation tests,
# which turn a SIGBUS on a file truncated under its mapping into an
# error, outside the race runtime too.
echo "== real mmap serving tests (no -race)"
go test -count=1 -run 'TestMappedV2|TestQuerySurfacesIOErrors|TestSearcherErrStopsStream' ./internal/storage
go test -count=1 -run 'Disk|SaveLoad' .

# Coverage floor for the index kernel and the hierarchical compactor.
# 88.5% is just under the combined statement coverage of internal/core
# + internal/hierarchy as of the shell-pruning PR (89.0%); new code in
# these two packages must arrive with tests that keep the combined
# figure at or above it.
echo "== coverage gate: internal/core + internal/hierarchy (floor 88.5%)"
cover_out="$(mktemp)"
go test -coverprofile="$cover_out" ./internal/core ./internal/hierarchy
total="$(go tool cover -func="$cover_out" | tail -1 | awk '{print $NF}' | tr -d '%')"
rm -f "$cover_out"
echo "combined coverage: ${total}%"
awk -v t="$total" 'BEGIN { if (t+0 < 88.5) { print "coverage gate: " t "% is below the 88.5% floor" > "/dev/stderr"; exit 1 } }'

# Coverage floor for the write path: the WAL (log, checkpoints, crash
# recovery) and the serving layer that commits to it. 87.0% is just
# under their combined statement coverage as of the persistent-delta
# change (87.7%).
echo "== coverage gate: internal/wal + internal/server (floor 87.0%)"
cover_out="$(mktemp)"
go test -coverprofile="$cover_out" ./internal/wal ./internal/server
total="$(go tool cover -func="$cover_out" | tail -1 | awk '{print $NF}' | tr -d '%')"
rm -f "$cover_out"
echo "combined coverage: ${total}%"
awk -v t="$total" 'BEGIN { if (t+0 < 87.0) { print "coverage gate: " t "% is below the 87.0% floor" > "/dev/stderr"; exit 1 } }'

# Replica divergence under fault injection, raced: a replica that
# misses an acked write must vanish from the read rotation until a
# resync replays its backlog, and the merge must stay exact throughout.
# The full suite above already runs this; repeating it with -count=2
# under -race shakes out ordering flakes in the quarantine/resync
# handshake cheaply.
echo "== shard divergence fault injection (-race, -count=2)"
go test -race -count=2 -run 'TestDivergedReplica|TestResyncTolerates|TestWriteFailsClean' ./internal/shard

# Short-budget fuzz passes. Seconds each, so regressions in the WAL
# replayer (panic on crash garbage, non-canonical re-encoding), the
# query path (TopN vs brute force under adversarial weights), the
# top-k collector (its selection vs a full sort, ties included) and the
# delta's selection (a tie-heavy delta vs brute force) surface in
# CI rather than only in long offline fuzz sessions. Any crasher found
# is minimized into testdata/fuzz/ and replays as a plain test case
# forever after.
echo "== fuzz: FuzzWALReplay (5s)"
go test -run='^$' -fuzz=FuzzWALReplay -fuzztime=5s ./internal/wal
echo "== fuzz: FuzzTopNWeights (5s)"
go test -run='^$' -fuzz=FuzzTopNWeights -fuzztime=5s ./internal/core
echo "== fuzz: FuzzHierarchyPersistRoundTrip (5s)"
go test -run='^$' -fuzz=FuzzHierarchyPersistRoundTrip -fuzztime=5s ./internal/hierarchy
echo "== fuzz: FuzzShellBucketBound (5s)"
go test -run='^$' -fuzz=FuzzShellBucketBound -fuzztime=5s ./internal/core
echo "== fuzz: FuzzCheckpointV2RoundTrip (5s)"
go test -run='^$' -fuzz=FuzzCheckpointV2RoundTrip -fuzztime=5s ./internal/storage
echo "== fuzz: FuzzBoundedMatchesSort (5s)"
go test -run='^$' -fuzz=FuzzBoundedMatchesSort -fuzztime=5s ./internal/topk
echo "== fuzz: FuzzDeltaRankMatchesSort (5s)"
go test -run='^$' -fuzz=FuzzDeltaRankMatchesSort -fuzztime=5s ./internal/core

# Parallel-build determinism smoke: a small -build-scaling sweep exits
# non-zero if any worker count produces a different layer partition
# than the sequential build (the guarantee the serving layer's seeded
# replay depends on — see DESIGN.md §7). Kept small so it adds seconds,
# not minutes; the committed BENCH_build.json is the full-size run.
echo "== parallel build determinism smoke (onionbench -build-scaling)"
smoke_out="$(mktemp)"
query_out="$(mktemp)"
cache_out="$(mktemp)"
shard_out="$(mktemp)"
trap 'rm -f "$smoke_out" "$query_out" "$cache_out" "$shard_out"' EXIT
go run ./cmd/onionbench -build-scaling -n 8000 -build-workers 1,4 -build-out "$smoke_out"

# Query-path equivalence smoke: a small -query-scaling sweep
# cross-checks every pruning mode of the columnar walk — unpruned,
# layer-pruned and shell-pruned — and TopNBatch for bit-identical top-N
# output (IDs, score bits, order) at worker counts 1 and 4, and checks
# the unpruned reference against a brute-force scan. Any
# divergence exits non-zero. The committed BENCH_query.json is the
# full-size (100k-point) run of the same gate.
echo "== query path equivalence smoke (onionbench -query-scaling)"
go run ./cmd/onionbench -query-scaling -n 3000 -queries 32 -query-workers 1,4 -query-out "$query_out"

# Shell-pruning smoke at a corpus size where the angular buckets do
# real skipping: the same bit-equivalence gate (shells solo + batched
# against the unpruned walk, with and without an active delta buffer,
# plus the brute-force oracle) over a 10k corpus at top-10 and top-100,
# so it stays seconds. Top-100 is where the candidate floor skips most
# buckets. The committed BENCH_query.json is the 100k run whose
# headline records the shells records-evaluated cut.
echo "== shell pruning equivalence smoke (onionbench -query-scaling, 10k)"
shells_out="$(mktemp)"
go run ./cmd/onionbench -query-scaling -n 10000 -queries 24 -query-workers 1,4 -query-topns 10,100 -query-out "$shells_out"
rm -f "$shells_out"

# Result-cache equivalence smoke: a small -cache-scaling run gates the
# cached path (prefix serving off deeper entries, singleflight
# coalescing, recomputation after epoch invalidation) on bit-identical
# output versus the uncached walk and a brute-force sample before any
# timing, and exits non-zero on divergence. The committed
# BENCH_cache.json is the full-size (100k×4D) run of the same gate.
echo "== result cache equivalence smoke (onionbench -cache-scaling)"
go run ./cmd/onionbench -cache-scaling -n 3000 -queries 64 -cache-out "$cache_out"

# Scatter-gather equivalence smoke: a 3-shard in-process cluster (plus
# single-shard and replicated configurations) behind the coordinator,
# gated bitwise (IDs, score bits, order) against a one-node oracle over
# the same corpus — queries, the batch endpoint, and coordinator-routed
# mutations — and a slowed-replica hedge exercise that must fire, win,
# and change nothing. go vet above already covers internal/shard and
# cmd/onioncoord. The committed BENCH_shard.json is the full-size run.
echo "== sharded serving equivalence smoke (onionbench -shard-scaling)"
go run ./cmd/onionbench -shard-scaling -n 3000 -queries 24 -shard-counts 1,3 -shard-replicas 1,2 -shard-out "$shard_out"

# Write-path smoke: concurrent readers against a sustained mutation
# stream through the delta buffer, with background compaction, gated on
# sampled brute-force checks, a final rebuild-oracle bit-equivalence
# pass, and zero stale-reads-after-ack. A fold threshold of 1024 lets
# the run's few thousand mutations cross it several times, and the
# harness fails if they reached twice the threshold without a published
# fold, or if any fold failed. Exits non-zero on any divergence. The
# committed BENCH_write.json is the full-size (1M) run.
echo "== mixed read/write workload smoke (onionbench -mixed-workload)"
mixed_out="$(mktemp)"
go run ./cmd/onionbench -mixed-workload -n 5000 -mixed-dur 4s -mixed-rate 0 -mixed-delta-threshold 1024 -mixed-out "$mixed_out"
rm -f "$mixed_out"

# Hierarchical compaction smoke: a 10k-point -compaction-scaling run
# folds identical mixed delta batches through a flat and a hierarchical
# twin and gates every publish (pre- and post-fold) on bit-identical
# rankings versus both the flat twin and a brute-force total order,
# plus content-fingerprint equality. Exits non-zero on any divergence.
# The committed BENCH_compact.json is the full multi-size sweep.
echo "== hierarchical compaction equivalence smoke (onionbench -compaction-scaling)"
compact_out="$(mktemp)"
go run ./cmd/onionbench -compaction-scaling -n 10000 -compaction-deltas 64,512 -compaction-rounds 1 -compaction-out "$compact_out"
rm -f "$compact_out"

# Mmap cold-start smoke: a 10k-point -coldstart run gates mmap ≡ heap ≡
# brute-force answers at worker counts 1 and 4 before timing, measures
# restart-to-first-query both ways, and drives queries under a resident
# budget 1/8th of the checkpoint (so eviction really happens). The
# speedup floor is only asserted at full size; here the gate is the
# equivalence oracle and that the pipeline runs end to end. The
# committed BENCH_mmap.json is the 1M run.
echo "== mmap cold-start equivalence smoke (onionbench -coldstart, 10k)"
cold_out="$(mktemp)"
go run ./cmd/onionbench -coldstart -n 10000 -queries 100 -coldstart-out "$cold_out"
rm -f "$cold_out"

echo "CI OK"
