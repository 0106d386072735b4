package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
)

// The nested encoder below is the oracle for the on-disk format. It is the
// encoding the snapshot and the WAL had when a rule was marshaled through its
// own MarshalJSON inside the enclosing value, which json.Marshal then
// validated and compacted a second time: nestedRule's MarshalJSON is that
// Rule.MarshalJSON verbatim, over a verbatim copy of the rule's serialized
// form. The snapshot version was read back from the marshaled bytes.

// nestedRuleJSON is the serialized form of a rule.
type nestedRuleJSON struct {
	ID           string       `json:"id"`
	Kind         string       `json:"kind"`
	Source       string       `json:"source,omitempty"`
	TargetType   string       `json:"target_type,omitempty"`
	Attr         string       `json:"attr,omitempty"`
	Value        string       `json:"value,omitempty"`
	AllowedTypes []string     `json:"allowed_types,omitempty"`
	Guards       []core.Guard `json:"guards,omitempty"`
	Author       string       `json:"author,omitempty"`
	Provenance   string       `json:"provenance,omitempty"`
	Confidence   float64      `json:"confidence"`
	Status       string       `json:"status"`
	CreatedAt    uint64       `json:"created_at"`
	UpdatedAt    uint64       `json:"updated_at"`
	Note         string       `json:"note,omitempty"`
}

type nestedRule struct{ r *core.Rule }

// MarshalJSON implements json.Marshaler.
func (n *nestedRule) MarshalJSON() ([]byte, error) {
	r := n.r
	return json.Marshal(nestedRuleJSON{
		ID: r.ID, Kind: r.Kind.String(), Source: r.Source,
		TargetType: r.TargetType, Attr: r.Attr, Value: r.Value,
		AllowedTypes: r.AllowedTypes, Guards: r.Guards, Author: r.Author,
		Provenance: r.Provenance, Confidence: r.Confidence,
		Status: r.Status.String(), CreatedAt: r.CreatedAt,
		UpdatedAt: r.UpdatedAt, Note: r.Note,
	})
}

// nestedRulebaseJSON is the serialized form of a rulebase.
type nestedRulebaseJSON struct {
	Version uint64            `json:"version"`
	NextID  int               `json:"next_id"`
	Rules   []*nestedRule     `json:"rules"`
	Audit   []core.AuditEntry `json:"audit"`
}

// nestedChange is core.Change with the rule nested. A one-step record never
// has an empty version or action, so their omitempty flags keep its bytes
// those of the encoder without them; they drop both from the steps of Ops.
type nestedChange struct {
	Version    uint64         `json:"v,omitempty"`
	Action     string         `json:"action,omitempty"`
	RuleID     string         `json:"rule_id,omitempty"`
	Actor      string         `json:"actor,omitempty"`
	Note       string         `json:"note,omitempty"`
	Rule       *nestedRule    `json:"rule,omitempty"`
	Confidence float64        `json:"confidence,omitempty"`
	NextID     int            `json:"next_id,omitempty"`
	Ops        []nestedChange `json:"ops,omitempty"`
}

// nestedOf returns ch, and each of its steps, with the rule nested.
func nestedOf(ch core.Change) nestedChange {
	nc := nestedChange{
		Version: ch.Version, Action: ch.Action, RuleID: ch.RuleID, Actor: ch.Actor,
		Note: ch.Note, Confidence: ch.Confidence, NextID: ch.NextID,
	}
	if ch.Rule != nil {
		nc.Rule = &nestedRule{ch.Rule}
	}
	for _, s := range ch.Ops {
		nc.Ops = append(nc.Ops, nestedOf(s))
	}
	return nc
}

// nestedSnapshot returns the snapshot bytes of a rulebase holding rules and
// audit at version with the auto-ID counter at nextID, and the version read
// back from them.
func nestedSnapshot(version uint64, nextID int, rules []*core.Rule, audit []core.AuditEntry) ([]byte, uint64, error) {
	nested := make([]*nestedRule, len(rules))
	for i, r := range rules {
		nested[i] = &nestedRule{r}
	}
	data, err := json.Marshal(nestedRulebaseJSON{
		Version: version, NextID: nextID, Rules: nested, Audit: audit,
	})
	if err != nil {
		return nil, 0, err
	}
	var meta struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, 0, err
	}
	return data, meta.Version, nil
}

// nestedRecord frames ch as one WAL record.
func nestedRecord(ch core.Change) ([]byte, error) {
	payload, err := json.Marshal(nestedOf(ch))
	if err != nil {
		return nil, err
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderSize:], payload)
	return frame, nil
}

// oracleStrings are the field values the fuzz target draws from: characters
// the encoder escapes (HTML, U+2028/U+2029, control characters, quotes),
// invalid UTF-8 it replaces, and plain text.
var oracleStrings = []string{
	"", "plain", "<b>&amp;</b>", "a\u2028b\u2029c", "tab\tnl\n\x00\x1f\x7f",
	"bad\xffutf8\xc3", "quote\"back\\slash/", "émoji 📱", "1e21",
}

// oracleConfidences include the values where float formatting changes form
// (1e-7 and 1e21 switch to exponents) and the extremes.
var oracleConfidences = []float64{0, 1e-7, 1e21, 0.875, 1, -0.5, 5e-324, math.MaxFloat64}

// FuzzSnapshotMatchesNested drives a rulebase with a store attached
// (compacting every third append) through an op stream decoded from the
// input — two bytes an op — with rules of every kind carrying guards,
// allowed types and oracleStrings in every string field. It requires every
// WAL frame, json.Marshal of every rule and of the rulebase after every op,
// every snapshot file the store writes, and the version the store records
// for it, to equal the nested encoder's. A NaN confidence, in a record, a
// rule or the rulebase, must be an error on both paths. At the end the
// directory is restored into a fresh rulebase, which must hold the live
// state (compared as decoded JSON, since invalid UTF-8 is replaced).
func FuzzSnapshotMatchesNested(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 6, 6, 0})
	f.Add([]byte{0, 7, 0, 8, 1, 1, 2, 3, 5, 2, 5, 1, 3, 3, 4, 1, 7, 0, 6, 0})
	f.Add([]byte{1, 9, 0, 10, 0, 11, 2, 0, 2, 1, 3, 2, 5, 6, 5, 7, 4, 0, 7, 1, 6, 1})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 8, 0, 8, 3, 2, 1, 8, 2, 6, 0, 8, 5, 7, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		dir := t.TempDir()
		st, err := Open(Options{Dir: dir, SnapshotEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		rb := core.NewRulebase()
		if err := st.Attach(rb); err != nil {
			t.Fatal(err)
		}
		nextID := 0
		cancel, _ := rb.SubscribeChanges(func(ch core.Change) {
			if ch.NextID != 0 {
				nextID = ch.NextID
			}
			got, err := EncodeRecord(ch)
			if err != nil {
				t.Fatalf("v%d %s: %v", ch.Version, ch.Action, err)
			}
			want, err := nestedRecord(ch)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("v%d %s frame:\ngot:  %q\nwant: %q", ch.Version, ch.Action, got, want)
			}
		})
		defer cancel()
		str := func(i int) string { return oracleStrings[i%len(oracleStrings)] }
		sources := []string{"phones? (case)?", "(laptop | monitor)", "apple .* phone", "pick[ -]?up"}
		newRule := func(arg byte) *core.Rule {
			a := int(arg)
			var r *core.Rule
			var err error
			switch src := sources[a%len(sources)]; a % 7 {
			case 0:
				r, err = core.NewWhitelist(src, "t"+str(a+1))
			case 1:
				r, err = core.NewBlacklist(src, "t"+str(a+2))
			case 2:
				r, err = core.NewGate(src, "t"+str(a+3))
			case 3:
				r, err = core.NewTypeRestrict(src, []string{str(a), str(a + 4)})
			case 4:
				r, err = core.NewAttrExists("isbn", "book")
			case 5:
				r, err = core.NewAttrValue("brand", "apple", []string{"phone"})
				r.Attr, r.Value, r.AllowedTypes = str(a+5), str(a+6), []string{str(a + 7), "", str(a)}
			default:
				r, err = core.NewFilter("vinyl")
			}
			if err != nil {
				t.Fatal(err)
			}
			if !r.IsPatternKind() {
				r.Source = str(a + 8) // not parsed for these kinds
			}
			r.Author, r.Provenance, r.Note = str(a/2), str(a/3), str(a/5)
			r.Confidence = oracleConfidences[a%len(oracleConfidences)]
			if a%2 == 0 {
				// Restore validates guards: non-empty attribute and value,
				// numeric operand for a comparison.
				r.Guards = []core.Guard{
					{Attr: "t" + str(a/7), Op: "contains", Value: "v" + str(a/11)},
					{Attr: "price", Op: "<", Value: "1e21"},
				}
			}
			return r
		}
		var ids []string
		pick := func(arg byte) string {
			if len(ids) == 0 {
				return "unknown"
			}
			return ids[int(arg)%len(ids)]
		}
		check := func(n int, what string) {
			want, wantVer, err := nestedSnapshot(rb.Version(), nextID, rb.All(), rb.Audit())
			if err != nil {
				t.Fatalf("op %d (%s): oracle: %v", n, what, err)
			}
			got, err := json.Marshal(rb)
			if err != nil {
				t.Fatalf("op %d (%s): %v", n, what, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d (%s): json.Marshal(rb):\ngot:  %s\nwant: %s", n, what, got, want)
			}
			for _, r := range rb.All() {
				got, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				want, err := (&nestedRule{r}).MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("op %d (%s): rule %s:\ngot:  %s\nwant: %s", n, what, r.ID, got, want)
				}
			}
			if st.sinceSnap != 0 || st.lastVersion != wantVer {
				return // the last compaction was at an earlier state
			}
			file, err := os.ReadFile(st.snapPath())
			if errors.Is(err, os.ErrNotExist) && wantVer == 0 {
				return // nothing written yet
			}
			if err != nil {
				t.Fatalf("op %d (%s): %v", n, what, err)
			}
			if !bytes.Equal(file, want) {
				t.Fatalf("op %d (%s): snapshot file:\ngot:  %s\nwant: %s", n, what, file, want)
			}
		}
		for n := 0; len(ops) >= 2 && n < 48; n++ {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			var what string
			switch op % 9 {
			case 0:
				what = "auto add"
				if id, err := rb.Add(newRule(arg), str(int(arg))); err == nil {
					ids = append(ids, id)
				}
			case 1:
				r := newRule(arg)
				r.ID = fmt.Sprintf("X%d%s", arg%4, str(int(arg)))
				what = "add " + r.ID
				if _, err := rb.Add(r, ""); err == nil {
					ids = append(ids, r.ID)
				}
			case 2:
				what = "disable"
				_ = rb.Disable(pick(arg), str(int(arg)), str(int(arg)+1))
			case 3:
				what = "enable"
				_ = rb.Enable(pick(arg), str(int(arg)+2), "")
			case 4:
				what = "retire"
				_ = rb.Retire(pick(arg), "", str(int(arg)+3))
			case 5:
				what = "update"
				_ = rb.UpdateConfidence(pick(arg), oracleConfidences[int(arg)%len(oracleConfidences)], str(int(arg)))
			case 6:
				what = "snapshot"
				if err := st.Snapshot(); err != nil {
					t.Fatalf("op %d: %v", n, err)
				}
			case 8:
				what = "commit"
				r := newRule(arg)
				ch, err := rb.Commit(str(int(arg)),
					core.Change{Action: "add", Rule: r},
					core.Change{Action: "disable", RuleID: pick(arg), Note: str(int(arg) + 4)},
					core.Change{Action: "update", RuleID: pick(arg + 1), Note: str(int(arg) + 5),
						Confidence: oracleConfidences[int(arg)%len(oracleConfidences)]})
				if err == nil {
					ids = append(ids, r.ID)
					what = fmt.Sprintf("commit of %d steps", max(1, len(ch.Ops)))
				}
			default:
				what = "NaN"
				bad := core.Change{Version: rb.Version() + 1, Action: "update", RuleID: pick(arg), Confidence: math.NaN()}
				if _, err := EncodeRecord(bad); err == nil {
					t.Fatalf("op %d: a NaN update record encoded", n)
				}
				if _, err := nestedRecord(bad); err == nil {
					t.Fatalf("op %d: the oracle encoded a NaN update record", n)
				}
				if len(ids) == 0 {
					break
				}
				// A stored rule is never written in place; this one is, to
				// get a NaN into the rulebase, and is put back before the
				// next op.
				r := rb.Get(pick(arg))
				saved := r.Confidence
				r.Confidence = math.NaN()
				bad = core.Change{Version: rb.Version() + 1, Action: "add", RuleID: r.ID, Rule: r}
				if _, err := EncodeRecord(bad); err == nil {
					t.Fatalf("op %d: a NaN rule record encoded", n)
				}
				if _, err := nestedRecord(bad); err == nil {
					t.Fatalf("op %d: the oracle encoded a NaN rule record", n)
				}
				if _, err := json.Marshal(rb); err == nil {
					t.Fatalf("op %d: a rulebase holding a NaN marshaled", n)
				}
				if _, _, err := nestedSnapshot(rb.Version(), nextID, rb.All(), rb.Audit()); err == nil {
					t.Fatalf("op %d: the oracle marshaled a rulebase holding a NaN", n)
				}
				if err := st.Snapshot(); err == nil {
					t.Fatalf("op %d: a rulebase holding a NaN was snapshot", n)
				}
				r.Confidence = saved
			}
			check(n, what)
		}
		if err := st.Broken(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		restored := core.NewRulebase()
		if _, err := again.Restore(restored); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(decoded(t, restored), decoded(t, rb)) {
			t.Fatalf("restored state differs from live:\nlive:     %s\nrestored: %s", decoded(t, rb), decoded(t, restored))
		}
	})
}

// decoded returns rb's JSON decoded into generic values.
func decoded(t *testing.T, rb *core.Rulebase) any {
	t.Helper()
	data, err := json.Marshal(rb)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v
}
