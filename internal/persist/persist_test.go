package persist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

func mustRule(r *core.Rule, err error) *core.Rule {
	if err != nil {
		panic(err)
	}
	return r
}

func testItems() []*catalog.Item {
	titles := []string{
		"apple phone 15 pro", "denim jeans relaxed fit", "gaming laptop rtx",
		"phone case leather", "espresso machine steel", "running shoes mesh",
		"vintage vinyl record", "noise cancelling headphones", "4k monitor 27in",
		"mechanical keyboard", "standing desk oak", "usb c cable 2m",
	}
	items := make([]*catalog.Item, 0, len(titles))
	for i, title := range titles {
		attrs := map[string]string{"Title": title}
		if i%3 == 0 {
			attrs["brand"] = "apple"
		}
		if i%4 == 0 {
			attrs["isbn"] = fmt.Sprintf("978-%d", i)
		}
		items = append(items, &catalog.Item{ID: fmt.Sprintf("it%02d", i), Attrs: attrs})
	}
	return items
}

// explains renders byte-comparable verdicts for every test item through a
// serve.Snapshot built from rb — the restart drill's equality oracle.
func explains(rb *core.Rulebase) []string {
	snap := serve.BuildSnapshot(rb, nil)
	items := testItems()
	out := make([]string, 0, len(items))
	for _, it := range items {
		out = append(out, snap.Apply(it).Explain())
	}
	return out
}

// mutate applies a scripted mixed-kind mutation sequence.
func mutate(t *testing.T, rb *core.Rulebase) {
	t.Helper()
	adds := []*core.Rule{
		mustRule(core.NewWhitelist("phones?", "phone")),
		mustRule(core.NewBlacklist("phone case", "phone")),
		mustRule(core.NewGate("espresso", "espresso machine")),
		mustRule(core.NewAttrExists("isbn", "book")),
		mustRule(core.NewAttrValue("brand", "apple", []string{"phone", "laptop"})),
		mustRule(core.NewFilter("vinyl")),
		mustRule(core.NewTypeRestrict("(laptop | monitor)", []string{"laptop", "monitor"})),
	}
	guarded := mustRule(core.NewWhitelist("jeans?", "jeans"))
	guarded.Guards = []core.Guard{{Attr: "price", Op: "<", Value: "100"}}
	adds = append(adds, guarded)
	ids := make([]string, 0, len(adds))
	for _, r := range adds {
		id, err := rb.Add(r, "ana")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := rb.Disable(ids[1], "ana", "precision dip on cases"); err != nil {
		t.Fatal(err)
	}
	if err := rb.UpdateConfidence(ids[0], 0.87, "eval-pipeline"); err != nil {
		t.Fatal(err)
	}
	if err := rb.Enable(ids[1], "ana", "recovered"); err != nil {
		t.Fatal(err)
	}
	if err := rb.Retire(ids[5], "bob", "business rule withdrawn"); err != nil {
		t.Fatal(err)
	}
	if err := rb.UpdateConfidence(ids[4], 0.42, "eval-pipeline"); err != nil {
		t.Fatal(err)
	}
}

// assertEquivalent asserts the full restart-drill equality: version, audit
// log, serialized state, and byte-equal verdicts through serve.Snapshot.
func assertEquivalent(t *testing.T, live, restored *core.Rulebase) {
	t.Helper()
	if restored.Version() != live.Version() {
		t.Fatalf("restored version = %d, live = %d", restored.Version(), live.Version())
	}
	if !reflect.DeepEqual(restored.Audit(), live.Audit()) {
		t.Fatal("restored audit log differs from live audit log")
	}
	lj, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := json.Marshal(restored)
	if err != nil {
		t.Fatal(err)
	}
	if string(lj) != string(rj) {
		t.Fatalf("restored state differs:\nlive:     %s\nrestored: %s", lj, rj)
	}
	lv, rv := explains(live), explains(restored)
	for i := range lv {
		if lv[i] != rv[i] {
			t.Fatalf("verdict %d not byte-equal after restore:\nlive:\n%s\nrestored:\n%s", i, lv[i], rv[i])
		}
	}
}

// TestRestoreEquivalence is the core property test: mutate a live rulebase
// with a store attached (with a mid-stream compaction), kill the store
// without a final snapshot, restore into a fresh rulebase, and require
// identical version, audit log, serialized state, and byte-equal verdicts.
func TestRestoreEquivalence(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st, err := Open(Options{Dir: dir, Fsync: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	live := core.NewRulebase()
	if err := st.Attach(live); err != nil {
		t.Fatal(err)
	}
	mutate(t, live)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if st.WALSize() != 0 {
		t.Fatalf("WAL not reset by snapshot: %d bytes", st.WALSize())
	}
	mutate(t, live)                    // more history on top of the compacted snapshot
	if err := st.Close(); err != nil { // kill: no final snapshot
		t.Fatal(err)
	}

	st2, err := Open(Options{Dir: dir, Fsync: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	restored := core.NewRulebase()
	stats, err := st2.Restore(restored)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed == 0 {
		t.Fatal("nothing replayed from the WAL — the kill path did not exercise replay")
	}
	if stats.Version != live.Version() {
		t.Fatalf("restore stats version = %d, live = %d", stats.Version, live.Version())
	}
	assertEquivalent(t, live, restored)

	if reg.Counter(MetricWALAppends).Value() == 0 ||
		reg.Counter(MetricSnapshots).Value() == 0 ||
		reg.Counter(MetricReplayed).Value() == 0 ||
		reg.Counter(MetricRestores).Value() != 1 {
		t.Fatalf("persist metrics not recorded: appends=%d snapshots=%d replayed=%d restores=%d",
			reg.Counter(MetricWALAppends).Value(), reg.Counter(MetricSnapshots).Value(),
			reg.Counter(MetricReplayed).Value(), reg.Counter(MetricRestores).Value())
	}
}

// TestRestartContinuesAppending: a restored store keeps logging and a second
// restart sees both generations of history.
func TestRestartContinuesAppending(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	live := core.NewRulebase()
	if err := st.Attach(live); err != nil {
		t.Fatal(err)
	}
	mutate(t, live)
	st.Close()

	// Generation 2: restore, attach, mutate more.
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	gen2 := core.NewRulebase()
	if _, err := st2.Restore(gen2); err != nil {
		t.Fatal(err)
	}
	mutateMore := func(rb *core.Rulebase) {
		if _, err := rb.Add(mustRule(core.NewWhitelist("keyboards?", "keyboard")), "gen2"); err != nil {
			t.Fatal(err)
		}
	}
	if err := st2.Attach(gen2); err != nil {
		t.Fatal(err)
	}
	mutateMore(gen2)
	st2.Close()
	mutateMore(live) // mirror on the in-memory reference

	st3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	gen3 := core.NewRulebase()
	if _, err := st3.Restore(gen3); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, live, gen3)
}

// TestAttachPopulatedTakesBaseline: adopting an already-populated rulebase
// (seeded before the store existed) writes a full baseline snapshot, so a
// crash immediately after Attach still restores the full state.
func TestAttachPopulatedTakesBaseline(t *testing.T) {
	dir := t.TempDir()
	live := core.NewRulebase()
	mutate(t, live) // populated before any store exists

	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Attach(live); err != nil {
		t.Fatal(err)
	}
	st.Close() // crash right after adoption

	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	restored := core.NewRulebase()
	stats, err := st2.Restore(restored)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotVersion != live.Version() {
		t.Fatalf("baseline snapshot version = %d, want %d", stats.SnapshotVersion, live.Version())
	}
	assertEquivalent(t, live, restored)
}

// TestAttachLoadedTakesBaseline: a rulebase loaded from a file (rulemaint
// -in) and attached with no Restore before it takes a baseline even at the
// store's durable version: the same version in another history is another
// state, so a restore must return the loaded rules, not the store's old ones.
func TestAttachLoadedTakesBaseline(t *testing.T) {
	dir := t.TempDir()
	add := func(rb *core.Rulebase, srcs ...string) {
		t.Helper()
		for _, src := range srcs {
			if _, err := rb.Add(mustRule(core.NewWhitelist(src, "t-"+src)), "ana"); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	old := core.NewRulebase()
	if err := st.Attach(old); err != nil {
		t.Fatal(err)
	}
	add(old, "rings?", "jeans?")
	st.Close()

	other := core.NewRulebase()
	add(other, "oils?", "mice")
	data, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	loaded := core.NewRulebase()
	if err := json.Unmarshal(data, loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.Version() != old.Version() {
		t.Fatalf("fixture: loaded at version %d, store at %d", loaded.Version(), old.Version())
	}
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Attach(loaded); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Disable("R000001", "ana", "after attach"); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	restored := core.NewRulebase()
	if _, err := st3.Restore(restored); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, loaded, restored)
}

// TestCorruptSnapshotRefused: a truncated or garbage snapshot file is
// refused by Restore into a fresh rulebase and by Attach of a populated one
// with no Restore before it — never overwritten by a baseline — and neither
// the snapshot nor the WAL changes by a byte.
func TestCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	live := core.NewRulebase()
	if err := st.Attach(live); err != nil {
		t.Fatal(err)
	}
	mutate(t, live)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Add(mustRule(core.NewWhitelist("keyboards?", "keyboard")), "ana"); err != nil {
		t.Fatal(err) // a WAL tail beyond the snapshot
	}
	st.Close()
	snapPath, walPath := filepath.Join(dir, snapshotFile), filepath.Join(dir, walFile)
	good, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(walPath)
	if err != nil || len(wal) == 0 {
		t.Fatalf("fixture: WAL %d bytes, %v", len(wal), err)
	}

	for name, snap := range map[string][]byte{
		"truncated": good[:len(good)/2],
		"garbage":   []byte("\x00\xffnot a snapshot {\"version\": 3"),
	} {
		if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		openThen := func(use func(*Store) error) error {
			st, err := Open(Options{Dir: dir})
			if err != nil {
				return err
			}
			defer st.Close()
			return use(st)
		}
		if err := openThen(func(st *Store) error {
			_, err := st.Restore(core.NewRulebase())
			return err
		}); err == nil {
			t.Errorf("%s snapshot: Restore into a fresh rulebase succeeded", name)
		}
		populated := core.NewRulebase()
		mutate(t, populated)
		if err := openThen(func(st *Store) error { return st.Attach(populated) }); err == nil {
			t.Errorf("%s snapshot: Attach of a populated rulebase succeeded", name)
		}
		if _, err := populated.Add(mustRule(core.NewWhitelist("mice", "mouse")), "ana"); err != nil {
			t.Fatal(err)
		}
		for path, want := range map[string][]byte{snapPath: snap, walPath: wal} {
			if got, err := os.ReadFile(path); err != nil || string(got) != string(want) {
				t.Errorf("%s snapshot: %s changed (%d bytes, want %d; %v)", name, filepath.Base(path), len(got), len(want), err)
			}
		}
	}
}

// TestAutoSnapshot: SnapshotEvery compacts automatically and restore still
// reproduces the exact state.
func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st, err := Open(Options{Dir: dir, SnapshotEvery: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	live := core.NewRulebase()
	if err := st.Attach(live); err != nil {
		t.Fatal(err)
	}
	mutate(t, live) // 13 mutations -> at least 3 auto-compactions
	st.Close()
	if got := reg.Counter(MetricSnapshots).Value(); got < 2 {
		t.Fatalf("auto-compaction ran %d times, want >= 2", got)
	}

	st2, err := Open(Options{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	restored := core.NewRulebase()
	if _, err := st2.Restore(restored); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, live, restored)
}

// TestConcurrentMutators: racing mutators' changes reach the WAL in version
// order with no gap, so the store never breaks and the restored state matches
// the final live state exactly. Run with -race in verify.sh/ci.
func TestConcurrentMutators(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	live := core.NewRulebase()
	if err := st.Attach(live); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 8)
	for i := range ids {
		id, err := live.Add(mustRule(core.NewWhitelist(fmt.Sprintf("tok%d", i), "t")), "seed")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch i % 3 {
				case 0:
					_ = live.UpdateConfidence(ids[(g*7+i)%len(ids)], float64(i)/50, "racer")
				case 1:
					_ = live.Disable(ids[(g*5+i)%len(ids)], "racer", "off")
				default:
					_ = live.Enable(ids[(g*3+i)%len(ids)], "racer", "on")
				}
			}
		}(g)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Broken(); err != nil {
		t.Fatalf("store broke under concurrent mutators: %v", err)
	}

	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	restored := core.NewRulebase()
	if _, err := st2.Restore(restored); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, live, restored)
}

// TestGapBreaksStore: a delivery that skips a version can only be a bug; the
// store refuses it loudly instead of appending past the hole.
func TestGapBreaksStore(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rb := core.NewRulebase()
	if err := st.Attach(rb); err != nil {
		t.Fatal(err)
	}
	id, err := rb.Add(mustRule(core.NewWhitelist("phones?", "phone")), "ana")
	if err != nil {
		t.Fatal(err)
	}
	size := st.WALSize()
	st.onChange(core.Change{Version: 3, Action: "disable", RuleID: id})
	err = st.Broken()
	if err == nil || !strings.Contains(err.Error(), "version 3") || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Broken() = %v, want an error naming versions 3 and 1", err)
	}
	if got := st.WALSize(); got != size {
		t.Fatalf("WAL grew from %d to %d bytes on a gapped delivery", size, got)
	}
}

// TestNonFiniteConfidenceRefused: a NaN or infinite confidence, which JSON
// cannot encode, is refused before the version moves — by an update, by an
// add and by a replayed change — so the attached store stays healthy and
// goes on logging.
func TestNonFiniteConfidenceRefused(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rb := core.NewRulebase()
	if err := st.Attach(rb); err != nil {
		t.Fatal(err)
	}
	id, err := rb.Add(mustRule(core.NewWhitelist("phones?", "phone")), "ana")
	if err != nil {
		t.Fatal(err)
	}
	inf := mustRule(core.NewWhitelist("cases?", "case"))
	inf.Confidence = math.Inf(1)
	refused := map[string]func() error{
		"update NaN":  func() error { return rb.UpdateConfidence(id, math.NaN(), "eval") },
		"update -Inf": func() error { return rb.UpdateConfidence(id, math.Inf(-1), "eval") },
		"add +Inf": func() error {
			_, err := rb.Add(inf, "ana")
			return err
		},
		"replayed update NaN": func() error {
			return rb.ApplyChange(core.Change{Version: rb.Version() + 1, Action: "update", RuleID: id, Confidence: math.NaN()})
		},
		"replayed add +Inf": func() error {
			r := inf.Clone()
			r.ID = "X1"
			return rb.ApplyChange(core.Change{Version: rb.Version() + 1, Action: "add", RuleID: r.ID, Rule: r})
		},
	}
	for name, mutation := range refused {
		v, size := rb.Version(), st.WALSize()
		if err := mutation(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if rb.Version() != v || st.WALSize() != size {
			t.Errorf("%s: version %d -> %d, WAL %d -> %d bytes", name, v, rb.Version(), size, st.WALSize())
		}
	}
	if inf.ID != "" {
		t.Errorf("refused add assigned ID %q", inf.ID)
	}
	if err := st.Broken(); err != nil {
		t.Fatalf("store broken: %v", err)
	}
	size := st.WALSize()
	if err := rb.Disable(id, "ana", "off"); err != nil {
		t.Fatal(err)
	}
	if st.WALSize() <= size {
		t.Fatalf("WAL stayed at %d bytes after a disable", size)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRequiresFreshStore: API misuse is rejected loudly.
func TestRestoreRequiresFreshStore(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rb := core.NewRulebase()
	if err := st.Attach(rb); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restore(core.NewRulebase()); err == nil {
		t.Fatal("Restore after Attach should fail")
	}
	if err := st.Attach(core.NewRulebase()); err == nil {
		t.Fatal("second Attach should fail")
	}
}

// TestExportDecisionsNDJSON: the file sink writes one valid JSON object per
// line, atomically, and honors the newest-n limit.
func TestExportDecisionsNDJSON(t *testing.T) {
	log := obs.NewAuditLog(obs.AuditConfig{Capacity: 64, SampleEvery: 1})
	for i := 0; i < 10; i++ {
		log.Observe(&obs.DecisionRecord{
			RequestID: fmt.Sprintf("req-%02d", i),
			ItemID:    fmt.Sprintf("it-%02d", i),
			Path:      obs.PathPerItem,
			Outcome:   obs.OutcomeClassified,
		})
	}
	path := filepath.Join(t.TempDir(), "decisions.ndjson")
	n, err := ExportDecisions(path, log, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("exported %d records, want 10", n)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	var first obs.DecisionRecord
	for sc.Scan() {
		var rec obs.DecisionRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		if lines == 0 {
			first = rec
		}
		lines++
	}
	if lines != 10 {
		t.Fatalf("export has %d lines, want 10", lines)
	}
	if first.RequestID != "req-00" {
		t.Fatalf("export should be oldest-first, first = %q", first.RequestID)
	}

	// newest-n limit
	n, err = ExportDecisions(path, log, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("limited export wrote %d records, want 3", n)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("export temp file left behind")
	}

	// disabled log errors instead of silently writing nothing
	var nilLog *obs.AuditLog
	if _, err := ExportDecisions(path, nilLog, 0); err == nil {
		t.Fatal("export from a disabled audit log should fail")
	}
}

// TestRecordRoundTrip: encode/decode round-trips every action shape.
func TestRecordRoundTrip(t *testing.T) {
	rb := core.NewRulebase()
	var stream []core.Change
	cancel, _ := rb.SubscribeChanges(func(ch core.Change) { stream = append(stream, ch) })
	defer cancel()
	mutate(t, rb)

	var buf []byte
	for _, ch := range stream {
		frame, err := EncodeRecord(ch)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, frame...)
	}
	recs, durable, torn := DecodeRecords(buf)
	if torn || durable != len(buf) {
		t.Fatalf("clean stream decoded as torn (durable=%d of %d)", durable, len(buf))
	}
	if len(recs) != len(stream) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(stream))
	}
	replayed := core.NewRulebase()
	for _, rec := range recs {
		if err := replayed.ApplyChange(rec); err != nil {
			t.Fatal(err)
		}
	}
	assertEquivalent(t, rb, replayed)
	for _, rec := range recs {
		if strings.Contains(rec.Action, " ") {
			t.Fatalf("suspicious action %q", rec.Action)
		}
	}
}
