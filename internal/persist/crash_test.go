package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// buildHistory runs a scripted mutation sequence on a store-attached
// rulebase, recording after every step the serialized state fingerprint and
// (via a parallel change subscription) the exact WAL frame each commit
// produced. The last two steps are changesets of several steps (a mixed
// Commit and a DisableWhere), one frame each. Returns the live rulebase, the per-version fingerprints
// (including version 0), and the cumulative frame-end offsets.
func buildHistory(t *testing.T, st *Store, rb *core.Rulebase) (fingerprints map[uint64]string, frameEnds []int, versions []uint64) {
	t.Helper()
	fingerprints = map[uint64]string{}
	snap := func() string {
		data, err := json.Marshal(rb)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	fingerprints[0] = snap()

	off := 0
	cancel, _ := rb.SubscribeChanges(func(ch core.Change) {
		frame, err := EncodeRecord(ch)
		if err != nil {
			t.Fatal(err)
		}
		off += len(frame)
		frameEnds = append(frameEnds, off)
	})
	defer cancel()

	steps := []func() error{
		func() error { _, err := rb.Add(mustRule(core.NewWhitelist("phones?", "phone")), "ana"); return err },
		func() error { _, err := rb.Add(mustRule(core.NewBlacklist("phone case", "phone")), "ana"); return err },
		func() error { _, err := rb.Add(mustRule(core.NewAttrExists("isbn", "book")), "bob"); return err },
		func() error {
			_, err := rb.Add(mustRule(core.NewAttrValue("brand", "apple", []string{"phone", "laptop"})), "bob")
			return err
		},
		func() error {
			g := mustRule(core.NewWhitelist("jeans?", "jeans"))
			g.Guards = []core.Guard{{Attr: "price", Op: "<", Value: "100"}}
			_, err := rb.Add(g, "ana")
			return err
		},
		func() error { _, err := rb.Add(mustRule(core.NewFilter("vinyl")), "ops"); return err },
		func() error {
			_, err := rb.Add(mustRule(core.NewTypeRestrict("(laptop | monitor)", []string{"laptop", "monitor"})), "ana")
			return err
		},
		func() error { return rb.Disable("R000002", "ana", "precision dip") },
		func() error { return rb.UpdateConfidence("R000001", 0.87, "eval") },
		func() error { return rb.Enable("R000002", "ana", "recovered") },
		func() error { return rb.Retire("R000006", "bob", "withdrawn") },
		func() error { return rb.UpdateConfidence("R000004", 0.42, "eval") },
		func() error {
			_, err := rb.Add(mustRule(core.NewGate("espresso", "espresso machine")), "ana")
			return err
		},
		func() error {
			_, err := rb.Commit("ops",
				core.Change{Action: "add", Rule: mustRule(core.NewFilter("toys"))},
				core.Change{Action: "disable", RuleID: "R000001", Note: "toys drill"},
				core.Change{Action: "disable", RuleID: "R000003", Note: "toys drill"})
			return err
		},
		func() error {
			if ids := rb.DisableWhere(func(r *core.Rule) bool { return r.Kind != core.Filter }, "ana", "scale down"); len(ids) != 5 {
				return fmt.Errorf("DisableWhere disabled %v, want 5 rules", ids)
			}
			return nil
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		v := rb.Version()
		fingerprints[v] = snap()
		versions = append(versions, v)
	}
	return fingerprints, frameEnds, versions
}

// TestWALCrashConsistencyEveryByte is the crash-consistency property test:
// truncate the WAL at EVERY byte boundary, replay, and require the restored
// rulebase to be exactly the live state as of the last fully-durable record —
// never a torn intermediate, never beyond the durable prefix.
func TestWALCrashConsistencyEveryByte(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, SnapshotEvery: -1}) // WAL holds all history
	if err != nil {
		t.Fatal(err)
	}
	live := core.NewRulebase()
	if err := st.Attach(live); err != nil {
		t.Fatal(err)
	}
	fingerprints, frameEnds, versions := buildHistory(t, st, live)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != frameEnds[len(frameEnds)-1] {
		t.Fatalf("WAL is %d bytes, subscription-computed frames end at %d", len(wal), frameEnds[len(frameEnds)-1])
	}

	// expectedVersion(cut): version of the last record whose frame fits
	// entirely inside the prefix (computed from the independently-recorded
	// frame boundaries, not from the decoder under test).
	expectedVersion := func(cut int) uint64 {
		var v uint64
		for i, end := range frameEnds {
			if end <= cut {
				v = versions[i]
			}
		}
		return v
	}

	scratch := t.TempDir()
	for cut := 0; cut <= len(wal); cut++ {
		if err := os.WriteFile(filepath.Join(scratch, walFile), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rst, err := Open(Options{Dir: scratch})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		restored := core.NewRulebase()
		if _, err := rst.Restore(restored); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		rst.Close()

		want := expectedVersion(cut)
		if got := restored.Version(); got != want {
			t.Fatalf("cut %d: restored version %d, want %d (never torn, never beyond durable)", cut, got, want)
		}
		data, err := json.Marshal(restored)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != fingerprints[want] {
			t.Fatalf("cut %d: restored state is not the live state at version %d:\nrestored: %s\nlive:     %s",
				cut, want, data, fingerprints[want])
		}
	}

	// At the exact frame boundaries, additionally require byte-equal verdicts
	// through serve.Snapshot (the full restart-drill oracle).
	oracle := map[uint64][]string{}
	for cutIdx, end := range frameEnds {
		if err := os.WriteFile(filepath.Join(scratch, walFile), wal[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		rst, err := Open(Options{Dir: scratch})
		if err != nil {
			t.Fatal(err)
		}
		restored := core.NewRulebase()
		if _, err := rst.Restore(restored); err != nil {
			t.Fatal(err)
		}
		rst.Close()
		oracle[versions[cutIdx]] = explains(restored)
	}
	// The final boundary must match the live rulebase's verdicts exactly.
	lastVerdicts := explains(live)
	finalV := versions[len(versions)-1]
	for i := range lastVerdicts {
		if oracle[finalV][i] != lastVerdicts[i] {
			t.Fatalf("verdict %d at final boundary not byte-equal to live", i)
		}
	}
}

// TestTornWriteInjection: a torn append (faultinject) kills the store; a
// reopen recovers the valid prefix and counts the discarded tail.
func TestTornWriteInjection(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(faultinject.Config{Seed: 11, WALTornWriteP: 0.25})
	st, err := Open(Options{Dir: dir, SnapshotEvery: -1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	live := core.NewRulebase()
	if err := st.Attach(live); err != nil {
		t.Fatal(err)
	}
	fingerprints, _, _ := buildHistory(t, st, live)
	st.Close()

	if inj.Counts()["wal_torn_write"] == 0 {
		t.Fatal("torn-write injector never fired at p=0.25 over 13 appends")
	}
	if !errors.Is(st.Broken(), ErrTornWrite) {
		t.Fatalf("store.Broken() = %v, want ErrTornWrite", st.Broken())
	}

	rst, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	restored := core.NewRulebase()
	if _, err := rst.Restore(restored); err != nil {
		t.Fatal(err)
	}
	want, ok := fingerprints[restored.Version()]
	if !ok {
		t.Fatalf("restored version %d is not a state the live rulebase passed through", restored.Version())
	}
	data, err := json.Marshal(restored)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != want {
		t.Fatalf("restored state at version %d differs from the live prefix state", restored.Version())
	}
	if restored.Version() >= live.Version() {
		t.Fatalf("torn store restored version %d, live reached %d — nothing was lost?", restored.Version(), live.Version())
	}
}

// TestShortReadInjection: a short read yields a valid prefix restore, leaves
// the file untouched, and makes the store refuse writes; a clean reopen sees
// the full history.
func TestShortReadInjection(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	live := core.NewRulebase()
	if err := st.Attach(live); err != nil {
		t.Fatal(err)
	}
	fingerprints, _, _ := buildHistory(t, st, live)
	st.Close()
	fullSize, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(faultinject.Config{Seed: 5, WALShortReadP: 1})
	short, err := Open(Options{Dir: dir, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	restored := core.NewRulebase()
	if _, err := short.Restore(restored); err != nil {
		t.Fatal(err)
	}
	want, ok := fingerprints[restored.Version()]
	if !ok {
		t.Fatalf("short-read restore landed on version %d, not a live prefix state", restored.Version())
	}
	data, _ := json.Marshal(restored)
	if string(data) != want {
		t.Fatalf("short-read restore at version %d is not the prefix state", restored.Version())
	}
	if err := short.Attach(restored); !errors.Is(err, ErrShortRead) {
		t.Fatalf("Attach after short read = %v, want ErrShortRead", err)
	}
	short.Close()

	after, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != fullSize.Size() {
		t.Fatalf("short read truncated the file: %d -> %d bytes", fullSize.Size(), after.Size())
	}

	clean, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	full := core.NewRulebase()
	if _, err := clean.Restore(full); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, live, full)
}

// TestBitrotMidRecord: flipping a byte inside an interior record ends the
// valid prefix there — the decoder must not resynchronize past corruption.
func TestBitrotMidRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	live := core.NewRulebase()
	if err := st.Attach(live); err != nil {
		t.Fatal(err)
	}
	fingerprints, frameEnds, versions := buildHistory(t, st, live)
	st.Close()

	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one payload byte inside the 4th record.
	pos := frameEnds[2] + frameHeaderSize + 3
	wal[pos] ^= 0xFF
	scratch := t.TempDir()
	if err := os.WriteFile(filepath.Join(scratch, walFile), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	rst, err := Open(Options{Dir: scratch})
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	restored := core.NewRulebase()
	if _, err := rst.Restore(restored); err != nil {
		t.Fatal(err)
	}
	if restored.Version() != versions[2] {
		t.Fatalf("bitrot in record 4: restored version %d, want %d (stop at corruption)", restored.Version(), versions[2])
	}
	data, _ := json.Marshal(restored)
	if string(data) != fingerprints[versions[2]] {
		t.Fatal("bitrot restore is not the exact pre-corruption prefix state")
	}
}
