package core

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// marshalTB is json.Marshal for a test or fuzz target.
func marshalTB(tb testing.TB, v any) []byte {
	tb.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// badLoad is a serialized rulebase every load must refuse, with the error
// text that names the reason.
type badLoad struct {
	reason string
	data   []byte
}

// badLoads returns a duplicated rule entry, a null rule entry, and a rule and
// an audit entry at version 0.
func badLoads(tb testing.TB) []badLoad {
	foreign := mustRule(NewWhitelist("records?", "vinyl"))
	foreign.ID = "X000001"
	return []badLoad{
		{"duplicate rule id", marshalTB(tb, rulebaseJSON{Version: 1, NextID: 1, Rules: []ruleJSON{foreign.toJSON(), foreign.toJSON()}})},
		{`unknown rule kind ""`, []byte(`{"version":1,"next_id":1,"rules":[null],"audit":null}`)},
		{"1 rules and 0 audit entries at version 0", marshalTB(tb, rulebaseJSON{Rules: []ruleJSON{foreign.toJSON()}})},
		{"0 rules and 1 audit entries at version 0", marshalTB(tb, rulebaseJSON{Audit: []AuditEntry{{Version: 1, Action: "add", RuleID: "X000001"}}})},
	}
}

// scriptedRulebase returns a rulebase of three whitelist rules at version 3.
func scriptedRulebase(tb testing.TB) *Rulebase {
	rb := NewRulebase()
	for _, src := range []string{"rings?", "jeans?", "oils?"} {
		if _, err := rb.Add(mustRule(NewWhitelist(src, "t-"+src)), "ana"); err != nil {
			tb.Fatal(err)
		}
	}
	return rb
}

// TestFailedLoadLeavesRulebaseUntouched: a load that fails validation (a
// duplicated rule entry, a null rule entry, rules or audit at version 0) leaves a
// fresh rulebase fresh, and a valid load into a rulebase that has committed
// or has a change subscriber is refused: each changes nothing and delivers
// nothing.
func TestFailedLoadLeavesRulebaseUntouched(t *testing.T) {
	fresh := marshalTB(t, NewRulebase())
	for _, bad := range badLoads(t) {
		rb := NewRulebase()
		if err := json.Unmarshal(bad.data, rb); err == nil || !strings.Contains(err.Error(), bad.reason) {
			t.Errorf("load refused for %q: error %v", bad.reason, err)
		}
		if got := marshalTB(t, rb); !bytes.Equal(got, fresh) {
			t.Errorf("load refused for %q changed a fresh rulebase: %s", bad.reason, got)
		}
	}

	good := marshalTB(t, scriptedRulebase(t))
	for _, tc := range []struct {
		name                  string
		committed, subscribed bool
		reason                string
	}{
		{"committed", true, false, "at version 5"},
		{"subscribed", false, true, "change subscriber"},
		{"committed and subscribed", true, true, "at version 5"},
	} {
		rb := NewRulebase()
		if tc.committed {
			rb = scriptedRulebase(t)
			if _, err := rb.Add(mustRule(NewWhitelist("records?", "vinyl")), "ana"); err != nil {
				t.Fatal(err)
			}
			if err := rb.Disable("R000001", "ana", ""); err != nil {
				t.Fatal(err)
			}
		}
		delivered := &[]Change{}
		if tc.subscribed {
			var cancel func()
			delivered, cancel, _ = collectChanges(rb)
			defer cancel()
		}
		before := marshalTB(t, rb)
		if err := json.Unmarshal(good, rb); err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("load into a %s rulebase: error %v, want one naming %q", tc.name, err, tc.reason)
		}
		if after := marshalTB(t, rb); !bytes.Equal(after, before) {
			t.Errorf("refused load into a %s rulebase changed it:\nbefore: %s\nafter:  %s", tc.name, before, after)
		}
		if len(*delivered) != 0 {
			t.Errorf("refused load into a %s rulebase delivered %d changes", tc.name, len(*delivered))
		}
	}

	rb := NewRulebase()
	if err := json.Unmarshal(good, rb); err != nil {
		t.Fatalf("the refused input does not load into a fresh rulebase: %v", err)
	}
	if got := marshalTB(t, rb); !bytes.Equal(got, good) {
		t.Fatalf("load into a fresh rulebase:\ngot:  %s\nwant: %s", got, good)
	}
	// A marshal racing the first Add can record its drawn auto-ID at
	// version 0; that snapshot must still load.
	drawn := []byte(`{"version":0,"next_id":1,"rules":[],"audit":null}`)
	if err := json.Unmarshal(drawn, NewRulebase()); err != nil {
		t.Fatalf("a next_id at version 0 refused: %v", err)
	}
}

// TestLoadOnlyInitializes: on a fresh rulebase a load races an Add and a
// SubscribeChanges. Exactly one of two outcomes is allowed: the load is
// applied whole and the add lands on top of it, or the add or the
// subscription commits first and the load is refused. Either way the
// subscriber hears exactly the versions after the one it registered at. Run
// with -race (verify.sh).
func TestLoadOnlyInitializes(t *testing.T) {
	src := scriptedRulebase(t)
	data := marshalTB(t, src)
	vinyl := func() *Rule { return mustRule(NewWhitelist("vinyl records?", "vinyl")) }
	// The two allowed end states, built without a race.
	onLoad := NewRulebase()
	if err := onLoad.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if _, err := onLoad.Add(vinyl(), "ana"); err != nil {
		t.Fatal(err)
	}
	loadedThenAdded := marshalTB(t, onLoad)
	alone := NewRulebase()
	if _, err := alone.Add(vinyl(), "ana"); err != nil {
		t.Fatal(err)
	}
	addedAlone := marshalTB(t, alone)

	applied, refused := 0, 0
	for i := 0; i < 300; i++ {
		rb := NewRulebase()
		var wg sync.WaitGroup
		var mu sync.Mutex
		var heard []uint64
		var regVer uint64
		var cancel func()
		var addErr error
		start := make(chan struct{})
		// The three racers each yield a round-dependent number of times, so
		// across rounds every order of the three occurs.
		wait := func(yields int) {
			<-start
			for j := 0; j < yields%64; j++ {
				runtime.Gosched()
			}
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			wait(i)
			_, addErr = rb.Add(vinyl(), "ana")
		}()
		go func() {
			defer wg.Done()
			wait(i * 37)
			cancel, regVer = rb.SubscribeChanges(func(ch Change) {
				mu.Lock()
				heard = append(heard, ch.Version)
				mu.Unlock()
			})
		}()
		close(start)
		wait(i * 11)
		loadErr := rb.UnmarshalJSON(data)
		wg.Wait()
		cancel()
		if addErr != nil {
			t.Fatal(addErr)
		}
		got := marshalTB(t, rb)
		switch {
		case loadErr == nil:
			applied++
			if !bytes.Equal(got, loadedThenAdded) {
				t.Fatalf("round %d: load applied, then:\ngot:  %s\nwant: %s", i, got, loadedThenAdded)
			}
		case strings.Contains(loadErr.Error(), "only initializes a fresh rulebase"):
			refused++
			if !bytes.Equal(got, addedAlone) {
				t.Fatalf("round %d: load refused (%v), then:\ngot:  %s\nwant: %s", i, loadErr, got, addedAlone)
			}
		default:
			t.Fatalf("round %d: load failed: %v", i, loadErr)
		}
		var want []uint64
		for v := regVer + 1; v <= rb.Version(); v++ {
			want = append(want, v)
		}
		mu.Lock()
		if !slices.Equal(heard, want) {
			t.Fatalf("round %d: subscriber registered at %d heard %v, want %v", i, regVer, heard, want)
		}
		mu.Unlock()
	}
	t.Logf("%d loads applied, %d refused", applied, refused)
}

// FuzzRulebaseLoad: a load reads outside input (rulemaint -in files,
// snapshots on disk). For any bytes loaded into a fresh rulebase it never
// panics; an error leaves the rulebase fresh; a success re-marshals to bytes
// that load into another fresh rulebase and marshal identically.
func FuzzRulebaseLoad(f *testing.F) {
	for _, bad := range badLoads(f) {
		f.Add(bad.data)
	}
	f.Add(marshalTB(f, scriptedRulebase(f)))
	f.Add([]byte(`{"version":2,"next_id":0,"rules":[{"id":"g","kind":"gate","source":"(a | b) c","target_type":"t","guards":[{"attr":"price","op":"<","value":"5"}],"confidence":0.5,"status":"disabled","created_at":1,"updated_at":2}],"audit":[]}`))
	f.Add([]byte(`{"version":0,"next_id":0,"rules":[],"audit":null}`))
	fresh := marshalTB(f, NewRulebase())
	f.Fuzz(func(t *testing.T, data []byte) {
		rb := NewRulebase()
		if err := rb.UnmarshalJSON(data); err != nil {
			if got := marshalTB(t, rb); !bytes.Equal(got, fresh) {
				t.Fatalf("failed load (%v) left %s", err, got)
			}
			return
		}
		once := marshalTB(t, rb)
		again := NewRulebase()
		if err := again.UnmarshalJSON(once); err != nil {
			t.Fatalf("re-marshaled load refused: %v\n%s", err, once)
		}
		if twice := marshalTB(t, again); !bytes.Equal(twice, once) {
			t.Fatalf("load is not stable:\nonce:  %s\ntwice: %s", once, twice)
		}
	})
}
