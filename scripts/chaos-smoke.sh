#!/bin/sh
# chaos-smoke.sh — crash-recovery and chaos-soak smoke test (wired into
# CI and `make test-chaos`; see docs/ENGINE.md).
#
# It asserts the three robustness guarantees of the journaling engine:
#   1. SIGKILL transparency: an engine killed mid-ingest recovers from
#      its write-ahead journal with a ledger byte-identical to an
#      uninterrupted run (subprocess test, no simulated crash);
#   2. chaos survival: the seeded soak — poison pills, allocator stalls,
#      mid-batch PE faults, kill/recover cycles — finishes with audited
#      invariants clean, byte-identical recoveries, and every poisoned
#      tenant healed by the circuit breaker;
#   3. facade journal round trips: engines built through the public
#      options recover byte-identically, and recovery by full replay and
#      by snapshot+tail yield identical ledgers (the write-ahead path
#      under the race detector);
#   4. snapshot retention: periodic snapshots keep the journal bounded,
#      and SIGKILL with truncation in flight still recovers
#      byte-identically;
#   5. placement under chaos: the balanced placer keeps rebalancing
#      through poison pills, stalls, and kill/recover cycles, every
#      recovery replays TypeMove records to the exact pre-crash routing
#      table, and the mid-rebalance SIGKILL test gates on
#      routing-table/membership consistency.
set -eu

echo "chaos-smoke: 1/5 SIGKILL mid-ingest recovery is byte-identical"
go test -race -run 'TestSIGKILLRecovery|TestRecoverMatchesUninterrupted' -count=1 ./internal/engine/

# The soak is race-instrumented: concurrent per-tenant ingestion, breaker
# probes, watchdog-abandoned workers, and recovery are exactly the
# concurrent paths worth watching. Two seeds so the injection schedule
# (which tenants are poisoned, when stalls land relative to crashes)
# is not a single lucky draw.
echo "chaos-smoke: 2/5 seeded chaos soak under the race detector"
go run -race ./cmd/engined -chaos -chaos-rounds 8 -seed 1
go run -race ./cmd/engined -chaos -chaos-rounds 6 -seed 7

# The round-trip test closes a journaled engine with queued events and
# a poisoned tenant in flight; the equivalence test recovers the same
# fleet by full replay and by snapshot+tail and demands both match an
# uninterrupted run byte for byte.
echo "chaos-smoke: 3/5 facade journal round trip; O(tail) recovery equivalence"
go test -race -run 'TestEngineJournalRecoverRoundTrip|TestSnapshotRecoveryEquivalence' -count=1 .

# The compaction test asserts the segment count stays bounded while the
# log keeps growing; the crash test SIGKILLs a child only after at least
# two truncations have landed.
echo "chaos-smoke: 4/5 snapshot retention bounds the WAL"
go test -race -run 'TestSnapshotCompactionBoundsLog|TestSIGKILLSnapshotRecovery' -count=1 ./internal/engine/

# The balanced soak forces a rebalance pass every round and gates each
# kill/recover cycle on routing-table identity; the subprocess test
# SIGKILLs an engine only after a TypeMove record is durable and demands
# the recovered routing table be a bijection to shard membership.
echo "chaos-smoke: 5/5 rebalance under poison pills and kill/recover"
go run -race ./cmd/engined -chaos -chaos-rounds 8 -placement balanced -seed 3
go test -race -run 'TestSIGKILLRebalanceRecovery' -count=1 ./internal/engine/

echo "chaos-smoke: OK"
