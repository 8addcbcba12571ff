package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"partalloc/internal/errs"
	"partalloc/internal/task"
	"partalloc/internal/wal"
)

// crashChildEnv points the helper process at its journal directory; the
// variable doubles as the guard that keeps TestCrashChild inert in
// normal test runs.
const crashChildEnv = "PARTALLOC_CRASH_DIR"

// crashFleet is the tenant fleet the crash child runs and the parent
// rebuilds. Block policy only: Degrade retunes d from wall-clock
// latency, which no two runs share, so placement determinism — the
// whole point of the test — holds for Block (and Shed) alone.
func crashFleet() []TenantSpec {
	return []TenantSpec{
		{ID: "basic", Algorithm: "basic", N: 16},
		{ID: "perry", Algorithm: "periodic", N: 32, D: 2, DSet: true},
		{ID: "lz", Algorithm: "lazy", N: 16, D: 1, DSet: true},
	}
}

func crashConfig(log *wal.Log) Config {
	return Config{Shards: 2, BatchSize: 8, MaxQueue: 32, Overload: Block, Journal: log, Rebuild: testRebuild}
}

// TestCrashChild is the helper body for TestSIGKILLRecovery, not a test:
// it journals submissions as fast as it can until the parent kills it
// with SIGKILL mid-ingest.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("crash-child helper; driven by TestSIGKILLRecovery")
	}
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(crashConfig(log))
	fleet := crashFleet()
	streams := make([][]task.Event, len(fleet))
	for i, spec := range fleet {
		addSpecTenant(t, eng, spec)
		streams[i] = testStream(spec.N, 500_000, int64(i+1))
	}
	// Round-robin 5-event chunks across tenants, forever by test
	// standards — the parent's SIGKILL is the only way out.
	for off := 0; ; off += 5 {
		for i, spec := range fleet {
			evs := streams[i]
			if off >= len(evs) {
				t.Fatal("crash child exhausted its stream before being killed")
			}
			end := off + 5
			if end > len(evs) {
				end = len(evs)
			}
			if err := eng.Submit(spec.ID, evs[off:end]...); err != nil {
				t.Fatalf("child submit %s: %v", spec.ID, err)
			}
		}
	}
}

// TestSIGKILLRecovery is the crash-recovery gate: a child process
// ingesting through the journal is SIGKILLed mid-stream, the parent
// Recovers an engine from the surviving journal, and every tenant's
// CanonicalStats must be byte-identical to an uninterrupted engine fed
// exactly the journaled submissions. SIGKILL (not a clean close) proves
// the append-before-apply write path itself: whatever write(2) calls
// completed are the state, torn tail included.
func TestSIGKILLRecovery(t *testing.T) {
	if os.Getenv(crashChildEnv) != "" {
		t.Skip("already inside the crash child")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-test.run=^TestCrashChild$")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	var childOut bytes.Buffer
	cmd.Stdout = &childOut
	cmd.Stderr = &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill only after the journal has grown well past the first few
	// records, so the SIGKILL lands mid-ingest, not before it. 64KiB is
	// on the order of a thousand Submit records — far enough to be mid
	// stream, small enough that even a race-instrumented child gets
	// there quickly.
	const killAfter = 64 << 10
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("journal never reached %d bytes; child output:\n%s", killAfter, childOut.String())
		}
		var total int64
		ents, _ := os.ReadDir(dir)
		for _, ent := range ents {
			if info, err := ent.Info(); err == nil {
				total += info.Size()
			}
		}
		if total >= killAfter {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatalf("child exited cleanly instead of dying to SIGKILL; output:\n%s", childOut.String())
	}

	// Recover from the journal the kill left behind (Open repairs any
	// torn tail before Replay).
	rec, err := Recover(crashConfig(nil), dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.cfg.Journal.Close()

	// The uninterrupted reference: a journal-less engine fed the exact
	// journaled calls. Recovery already repaired the log, so this replay
	// sees precisely the records Recover saw.
	ref := New(Config{Shards: 2, BatchSize: 8, MaxQueue: 32, Overload: Block})
	err = wal.Replay(dir, func(ord int, wrec wal.Record) error {
		switch wrec.Type {
		case wal.TypeAddTenant:
			var spec TenantSpec
			if err := json.Unmarshal(wrec.Data, &spec); err != nil {
				return err
			}
			a, sched, host, err := testRebuild(spec)
			if err != nil {
				return err
			}
			return ref.AddTenant(spec.ID, a, specTenantOptions(spec, sched, host)...)
		case wal.TypeSubmit:
			evs, err := wal.DecodeEvents(wrec.Data)
			if err != nil {
				return err
			}
			return ref.Submit(wrec.Tenant, evs...)
		default:
			return fmt.Errorf("record %d: the crash child only submits, got type %d", ord, wrec.Type)
		}
	})
	if err != nil {
		t.Fatalf("reference replay: %v", err)
	}

	want, got := ref.Stats(), rec.Stats()
	if len(got) != len(crashFleet()) || len(got) != len(want) {
		t.Fatalf("recovered %d tenants, reference %d, fleet %d", len(got), len(want), len(crashFleet()))
	}
	for i := range want {
		w, g := CanonicalStats(want[i]), CanonicalStats(got[i])
		if !bytes.Equal(w, g) {
			t.Errorf("%s: recovered stats diverge from uninterrupted run:\n  ref: %s\n  rec: %s", want[i].Tenant, w, g)
		}
		if got[i].Events == 0 {
			t.Errorf("%s: recovered zero events; the kill landed before ingestion", got[i].Tenant)
		}
	}

	// Life goes on: the recovered engine ingests and journals further.
	if err := rec.Submit("basic", arrivals(9_000_000, 3, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush("basic"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "00000001.wal")); err != nil {
		t.Errorf("journal first segment missing after recovery: %v", err)
	}
	if err := rec.Err("basic"); err != nil && !errors.Is(err, errs.ErrTenantPoisoned) {
		t.Fatal(err)
	}
}
