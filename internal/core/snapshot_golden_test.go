package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"partalloc/internal/tree"
)

// The snapshot golden pins the checkpoint wire format: the exact
// Snapshot bytes of every chkConfigs entry after a fixed scripted
// trajectory. Engine journals embed these bytes, so a change here means
// snapshots written by an older build no longer restore — regenerate
// only for a deliberate, versioned format change.
var updateSnapshotGolden = flag.Bool("update-snapshot-golden", false,
	"rewrite testdata/snapshot_golden.json from the current allocators")

const snapshotGoldenPath = "testdata/snapshot_golden.json"

// goldenSnapshot drives one configuration through the golden trajectory
// and returns its snapshot. Fault-tolerant configurations end with a PE
// failure in flight so the fault ledger and the blocked-leaf rebuild are
// part of the pinned bytes.
func goldenSnapshot(tc chkConfig) []byte {
	const n = 16
	a := tc.build(tree.MustNew(n))
	for _, op := range chkScript(21, n, 300, tc.faulty) {
		applyChkOp(a, op)
	}
	if ft, ok := a.(FaultTolerant); ok && tc.faulty && len(ft.FailedPEs()) == 0 {
		ft.FailPE(n / 2)
	}
	return a.(Checkpointable).Snapshot()
}

// TestSnapshotGolden byte-compares every configuration's snapshot with
// the golden, then restores each golden blob into a fresh instance and
// re-snapshots it: snapshots written by earlier builds must still
// recover, and recover to the same canonical bytes.
func TestSnapshotGolden(t *testing.T) {
	got := make(map[string]string)
	for _, tc := range chkConfigs() {
		got[tc.name] = hex.EncodeToString(goldenSnapshot(tc))
	}

	if *updateSnapshotGolden {
		if err := os.MkdirAll(filepath.Dir(snapshotGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d configurations)", snapshotGoldenPath, len(got))
		return
	}

	raw, err := os.ReadFile(snapshotGoldenPath)
	if err != nil {
		t.Fatalf("golden missing (run with -update-snapshot-golden): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d configurations, chkConfigs has %d", len(want), len(got))
	}
	for _, tc := range chkConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			w, ok := want[tc.name]
			if !ok {
				t.Fatal("configuration missing from the golden")
			}
			if got[tc.name] != w {
				t.Fatalf("snapshot bytes drifted:\n got %s\nwant %s", got[tc.name], w)
			}
			blob, err := hex.DecodeString(w)
			if err != nil {
				t.Fatal(err)
			}
			rest := tc.fresh(tree.MustNew(16)).(Checkpointable)
			if err := rest.Restore(blob); err != nil {
				t.Fatalf("golden blob no longer restores: %v", err)
			}
			if again := rest.Snapshot(); !bytes.Equal(again, blob) {
				t.Fatalf("restore(golden) re-snapshots differently:\n got %x\nwant %s", again, w)
			}
		})
	}
}
