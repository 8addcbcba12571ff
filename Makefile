# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short test-race test-fault test-topology test-chaos test-snapshot test-placement obs-smoke lint lint-json bench experiments experiments-quick cover golden clean

all: build lint test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

# Skips the multi-second stress tests; suitable for fast CI.
test-short:
	go test -short ./...

# Race-detector run over the short suite (the stress tests that matter
# for races are not short-gated, so this still exercises them).
test-race:
	go test -short -race ./...

# Fault-injection smoke: deterministic replay under faults, kill+resume
# byte-identity, and panicking-cell isolation (see docs/FAULTS.md).
test-fault:
	./scripts/fault-smoke.sh

# Topology suite under the race detector (docs/TOPOLOGIES.md): host
# construction and O(1) migration pricing vs brute force, the tree-host
# byte-identity golden, and the cross-topology trajectory equivalence of
# all six algorithms through Simulate and the engine.
test-topology:
	go test -race ./internal/topology/
	go test -race -run 'TestTreeHostGolden|TestCrossTopology' .

# Crash-recovery and chaos smoke: SIGKILL mid-ingest recovery
# byte-identity, the seeded chaos soak under -race, facade journal
# round trips, and snapshot retention (see docs/ENGINE.md).
test-chaos:
	./scripts/chaos-smoke.sh

# Snapshot & compaction suite under the race detector (docs/ENGINE.md,
# "Snapshots & compaction"): snapshot recovery byte-identity, O(tail)
# scan accounting, retention bounding the journal, idle tenants pinning
# it, breaker probes rebuilt from snapshots, MoveTenant, the snapshot
# SIGKILL crash test, and the facade-level three-way recovery
# equivalence gate.
test-snapshot:
	go test -race -run 'TestSnapshot|TestRecoveryReadsOnlyTail|TestBreakerProbeRestoresFromSnapshot|TestMoveTenant|TestSIGKILLSnapshotRecovery' -count=1 ./internal/engine/
	go test -race -run 'TestSnapshotRecoveryEquivalence' -count=1 .

# Placement suite under the race detector (docs/ENGINE.md, "Placement
# and rebalancing"): HashPlacer byte-identity goldens, BalancedPlacer
# plan determinism, the MoveTenant-through-placer regression, concurrent
# Submit during rebalance passes, the SIGKILL mid-rebalance crash test
# that gates recovery on routing-table consistency, and the skew gate
# (balanced hot-shard peak strictly below hash on a zipf fleet, with
# TypeMove replay restoring the routing table).
test-placement:
	go test -race -run 'TestHashPlacementGolden|TestBalancedPlacer|TestMoveTenantRoutesThroughPlacer|TestConcurrentSubmitDuringRebalance|TestSIGKILLRebalanceRecovery' -count=1 ./internal/engine/
	go test -race -run 'TestBalancedPlacementLowersHotShardPeak' -count=1 .

# Observability smoke (docs/OBSERVABILITY.md): boots `engined -listen`
# on a random port, scrapes /metrics, asserts the required series exist
# and the exposition parses, and checks the flight-recorder dump.
obs-smoke:
	./scripts/obs-smoke.sh

# Run the project's own analyzer suite (docs/LINTS.md): standalone over
# every package, then again through go vet's vettool protocol so both
# entry points stay healthy.
lint:
	go run ./cmd/partlint ./...
	go build -o /tmp/partlint ./cmd/partlint
	go vet -vettool=/tmp/partlint ./...

# Machine-readable findings for CI annotations and editors; exits 2 on
# findings like the plain run, with the JSON already written.
lint-json:
	go run ./cmd/partlint -json ./... > partlint.json

# Micro-benchmarks (batched vs serial apply, engine replay), then the
# end-to-end benchmark on all three workloads (perfbench/README.md).
bench:
	go test -bench=. -benchmem ./internal/core/ ./internal/engine/
	bash perfbench/run.sh --workload all

# Engine equivalence smoke for CI: batched ingestion must match serial
# Simulate and Replay.
bench-smoke:
	go test -run 'TestReplayMatchesSerialSimulate|TestSubmitMatchesReplay' -count=1 ./internal/engine/

# Regenerate every experiment artifact (E1–E14) at paper scale.
experiments:
	go run ./cmd/experiments -run all

experiments-quick:
	go run ./cmd/experiments -run all -quick

cover:
	go test -cover ./...

# Refresh the golden snapshots after an intentional behavior change.
golden:
	go test ./internal/experiments -run Golden -update-golden

clean:
	go clean ./...
