package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/core"
)

// fuzzSeedFrames builds a small valid WAL for seeding the fuzzer.
func fuzzSeedFrames(tb testing.TB) []byte {
	tb.Helper()
	rb := core.NewRulebase()
	var buf []byte
	cancel, _ := rb.SubscribeChanges(func(ch core.Change) {
		frame, err := EncodeRecord(ch)
		if err != nil {
			tb.Fatal(err)
		}
		buf = append(buf, frame...)
	})
	defer cancel()
	r, err := core.NewWhitelist("phones?", "phone")
	if err != nil {
		tb.Fatal(err)
	}
	id, err := rb.Add(r, "fuzz")
	if err != nil {
		tb.Fatal(err)
	}
	if err := rb.UpdateConfidence(id, 0.5, "fuzz"); err != nil {
		tb.Fatal(err)
	}
	if err := rb.Disable(id, "fuzz", "off"); err != nil {
		tb.Fatal(err)
	}
	return buf
}

// FuzzWALDecode fuzzes the WAL frame decoder: it must never panic, must
// report a durable prefix that is actually a prefix, and decoding that
// prefix again must be stable (same records, no torn flag) — the property
// crash recovery rests on. Every decoded record must also survive an
// encode/decode round trip unchanged.
func FuzzWALDecode(f *testing.F) {
	valid := fuzzSeedFrames(f)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // torn tail
	f.Add(valid[:frameHeaderSize-2])      // short header
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}) // zero-length frame
	huge := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(huge, uint32(maxRecordSize+1))
	f.Add(huge) // implausible length
	crcBad := append([]byte(nil), valid...)
	crcBad[5] ^= 0xFF
	f.Add(crcBad) // corrupted CRC
	notJSON := []byte{4, 0, 0, 0, 0, 0, 0, 0, 'a', 'b', 'c', 'd'}
	binary.LittleEndian.PutUint32(notJSON[4:8], crc32.ChecksumIEEE(notJSON[8:]))
	f.Add(notJSON) // valid frame, invalid payload

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, durable, torn := DecodeRecords(data)
		if durable < 0 || durable > len(data) {
			t.Fatalf("durable = %d, outside [0,%d]", durable, len(data))
		}
		if torn != (durable < len(data)) {
			t.Fatalf("torn = %v but durable %d of %d", torn, durable, len(data))
		}
		recs2, durable2, torn2 := DecodeRecords(data[:durable])
		if torn2 || durable2 != durable || len(recs2) != len(recs) {
			t.Fatalf("durable prefix not stable: torn=%v durable=%d/%d recs=%d/%d",
				torn2, durable2, durable, len(recs2), len(recs))
		}
		for i, rec := range recs {
			frame, err := EncodeRecord(rec)
			if err != nil {
				t.Fatalf("record %d does not re-encode: %v", i, err)
			}
			again, n, tornOne := DecodeRecords(frame)
			if tornOne || n != len(frame) || len(again) != 1 {
				t.Fatalf("record %d re-encoded frame does not decode cleanly", i)
			}
			a, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(again[0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("record %d round trip changed:\nbefore: %s\nafter:  %s", i, a, b)
			}
		}
	})
}

// FuzzReplayEqualsLive drives a live, subscribed rulebase with an op stream
// decoded from the input (two bytes an op: which op, and its argument) and
// puts every delivered change through EncodeRecord → DecodeRecords →
// ApplyChange onto a fresh rulebase; the two must marshal to the same bytes
// after every op. The ops cover auto- and explicit-ID adds of every kind,
// duplicate IDs, disable/enable/retire of unknown, retired and
// already-in-state rules, confidence updates, and changesets: DisableWhere,
// EnableAll, and a mixed Commit that is refused whole when it names a rule
// twice or moves a retired one. Explicit IDs may take the
// form of an auto ID the counter has not reached yet, which a later auto add
// must then skip.
func FuzzReplayEqualsLive(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 1, 2, 1, 3, 1, 5, 200, 4, 2, 3, 2})
	f.Add([]byte{1, 3, 1, 3, 7, 1, 0, 4, 6, 9, 2, 0, 5, 0, 0, 5})
	f.Add([]byte{1, 1, 1, 5, 0, 0, 0, 1, 0, 2, 1, 9, 0, 3, 2, 4})
	f.Add([]byte{0, 0, 0, 1, 8, 0, 8, 1, 4, 0, 8, 3, 6, 1, 7, 0, 8, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		live, replica := core.NewRulebase(), core.NewRulebase()
		var delivered []core.Change
		cancel, _ := live.SubscribeChanges(func(ch core.Change) { delivered = append(delivered, ch) })
		defer cancel()
		var ids []string
		pick := func(arg byte) string {
			if len(ids) == 0 || arg%7 == 0 {
				return "unknown"
			}
			return ids[int(arg)%len(ids)]
		}
		newRule := func(arg byte) *core.Rule {
			var r *core.Rule
			var err error
			switch word := fmt.Sprintf("w%d", arg%16); arg % 5 {
			case 0:
				r, err = core.NewWhitelist(word+" phones?", "phone")
			case 1:
				r, err = core.NewBlacklist(word, "phone")
			case 2:
				r, err = core.NewAttrValue("brand", word, []string{"phone", "laptop"})
			case 3:
				r, err = core.NewFilter(word)
			default:
				r, err = core.NewGate(word, "book")
			}
			if err != nil {
				t.Fatal(err)
			}
			if arg%2 == 0 {
				r.Guards = []core.Guard{{Attr: "price", Op: "<", Value: "100"}}
			}
			return r
		}
		for n := 0; len(ops) >= 2 && n < 64; n++ {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			var what string
			switch op % 9 {
			case 0:
				what = "auto add"
				if id, err := live.Add(newRule(arg), "fuzz"); err == nil {
					ids = append(ids, id)
				}
			case 1:
				r := newRule(arg)
				r.ID = fmt.Sprintf("X%d", arg%8)
				if arg%4 == 1 {
					r.ID = fmt.Sprintf("R%06d", 1+arg%8) // an auto ID, reached or not
				}
				if arg%3 == 0 && len(ids) > 0 {
					r.ID = ids[int(arg)%len(ids)] // a duplicate of an auto ID
				}
				what = "add " + r.ID
				if _, err := live.Add(r, ""); err == nil {
					ids = append(ids, r.ID)
				}
			case 2:
				what = "disable"
				_ = live.Disable(pick(arg), "fuzz", "off")
			case 3:
				what = "enable"
				_ = live.Enable(pick(arg), "", "")
			case 4:
				what = "retire"
				_ = live.Retire(pick(arg), "fuzz", "gone")
			case 5:
				what = "update"
				_ = live.UpdateConfidence(pick(arg), float64(arg%5)/4, "eval")
			case 6:
				what = "disable where"
				live.DisableWhere(func(r *core.Rule) bool { return len(r.ID)%2 == int(arg)%2 }, "fuzz", "bulk")
			case 7:
				what = "enable all"
				live.EnableAll(ids, "fuzz", "restore")
			default:
				// A mixed changeset; it may name one rule twice or move a
				// retired one, and then must be refused whole.
				what = "commit"
				r := newRule(arg)
				if _, err := live.Commit("fuzz",
					core.Change{Action: "add", Rule: r},
					core.Change{Action: "disable", RuleID: pick(arg), Note: "off"},
					core.Change{Action: "update", RuleID: pick(arg + 1), Confidence: float64(arg%3) / 2},
				); err == nil {
					ids = append(ids, r.ID)
				}
			}

			var wal []byte
			for _, ch := range delivered {
				frame, err := EncodeRecord(ch)
				if err != nil {
					t.Fatal(err)
				}
				wal = append(wal, frame...)
			}
			delivered = delivered[:0]
			recs, _, torn := DecodeRecords(wal)
			if torn {
				t.Fatalf("op %d (%s): clean frames decoded as torn", n, what)
			}
			for _, ch := range recs {
				if err := replica.ApplyChange(ch); err != nil {
					t.Fatalf("op %d (%s): replay: %v", n, what, err)
				}
			}
			a, err := json.Marshal(live)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(replica)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("op %d (%s): replay differs from live:\nlive:    %s\nreplica: %s", n, what, a, b)
			}
		}
	})
}
