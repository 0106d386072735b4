package core

import (
	"encoding/json"
	"fmt"
	"math"
)

// Change is one completed rulebase mutation as a self-contained, applyable
// record: the audit entry's fields plus exactly the payload a replayer needs
// to reproduce the state transition (the added rule's content, the new
// confidence, the auto-ID counter). It is also the record the write-ahead log
// in internal/persist frames, so changeJSON's keys are the on-disk format:
// keep them, their order and their omitempty flags. Rulebase.apply makes the
// transition a Change records, for live mutations and ApplyChange alike.
type Change struct {
	Version uint64
	Action  string // add / update / disable / enable / retire
	RuleID  string
	Actor   string
	Note    string
	// Rule is the added rule's content frozen at mutation time ("add" only),
	// safe to retain and serialize after later mutations touch the live rule.
	Rule *Rule
	// Confidence is the new precision estimate ("update" only).
	Confidence float64
	// NextID is the auto-ID counter after the mutation ("add" only), so a
	// replayed rulebase assigns the same IDs to future auto-ID adds.
	NextID int
}

// changeJSON is Change's serialized form, with the added rule in its flat
// form so a record is encoded and decoded in one pass.
type changeJSON struct {
	Version    uint64    `json:"v"`
	Action     string    `json:"action"`
	RuleID     string    `json:"rule_id,omitempty"`
	Actor      string    `json:"actor,omitempty"`
	Note       string    `json:"note,omitempty"`
	Rule       *ruleJSON `json:"rule,omitempty"`
	Confidence float64   `json:"confidence,omitempty"`
	NextID     int       `json:"next_id,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (ch Change) MarshalJSON() ([]byte, error) {
	j := changeJSON{
		Version: ch.Version, Action: ch.Action, RuleID: ch.RuleID, Actor: ch.Actor,
		Note: ch.Note, Confidence: ch.Confidence, NextID: ch.NextID,
	}
	if ch.Rule != nil {
		r := ch.Rule.toJSON()
		j.Rule = &r
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler, recompiling the added rule's
// pattern.
func (ch *Change) UnmarshalJSON(data []byte) error {
	var j changeJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	var r *Rule
	if j.Rule != nil {
		r = new(Rule)
		if err := r.fromJSON(j.Rule); err != nil {
			return err
		}
	}
	*ch = Change{
		Version: j.Version, Action: j.Action, RuleID: j.RuleID, Actor: j.Actor,
		Note: j.Note, Rule: r, Confidence: j.Confidence, NextID: j.NextID,
	}
	return nil
}

// Entry returns the audit entry the mutation appended.
func (ch Change) Entry() AuditEntry {
	return AuditEntry{ch.Version, ch.Action, ch.RuleID, ch.Actor, ch.Note}
}

// ActionLoad is the pseudo-action delivered to change subscribers when the
// rulebase is wholesale replaced via UnmarshalJSON. It is not an incremental
// mutation — the version may even move backwards — so a durability layer must
// respond by re-snapshotting the full state rather than appending.
const ActionLoad = "load"

// SubscribeChanges registers fn to receive every subsequent mutation — live
// mutations, ApplyChange replays and UnmarshalJSON loads alike — as an
// applyable Change record, and returns the rulebase version as of
// registration. The two are read atomically, so fn receives exactly the
// versions after version, in version order: deliveries run on the committing
// goroutine, outside the rulebase lock, and the next commit waits until every
// subscriber has returned.
//
// fn may read the rulebase but must not mutate it (the mutation would wait
// for the delivery that is calling it). Every mutator waits on fn, so it
// should be fast — typically a non-blocking send that wakes an async loop.
// The returned cancel removes the subscription.
func (rb *Rulebase) SubscribeChanges(fn func(Change)) (cancel func(), version uint64) {
	// Holding the read half of rb.mu blocks mutators for the duration of the
	// registration, making the (subscriber set, version) pair consistent.
	rb.mu.RLock()
	ver := rb.version
	rb.subMu.Lock()
	if rb.chSubs == nil {
		rb.chSubs = map[int]func(Change){}
	}
	id := rb.nextSub
	rb.nextSub++
	rb.chSubs[id] = fn
	rb.subMu.Unlock()
	rb.mu.RUnlock()
	return func() {
		rb.subMu.Lock()
		delete(rb.chSubs, id)
		rb.subMu.Unlock()
	}, ver
}

// hasChangeSubs reports whether any change subscriber is registered, so
// mutators can skip building the (allocating) Change payload when nobody
// listens. Called under rb.mu — the lock order is always mu before subMu.
func (rb *Rulebase) hasChangeSubs() bool {
	rb.subMu.RLock()
	n := len(rb.chSubs)
	rb.subMu.RUnlock()
	return n > 0
}

// changeSubs copies the subscriber set (nil when empty). commit calls it
// under rb.mu, which excludes registration, so the copy holds exactly the
// subscribers registered before the commit's version.
func (rb *Rulebase) changeSubs() []func(Change) {
	rb.subMu.RLock()
	defer rb.subMu.RUnlock()
	if len(rb.chSubs) == 0 {
		return nil
	}
	fns := make([]func(Change), 0, len(rb.chSubs))
	for _, fn := range rb.chSubs {
		fns = append(fns, fn)
	}
	return fns
}

// ApplyChange replays one recorded mutation onto the rulebase, reproducing
// the exact state transition the original mutation made: same version, same
// audit entry (verbatim, including actor and note), same rule content and
// clock stamps. Records must be applied in order — Version must be exactly
// Version()+1 — which is how a WAL replayer detects gaps.
//
// Replay is delivered to subscribers like any live mutation, so a serving
// engine tracking the rulebase rebuilds. A durability layer never hears its
// own replay because persist.Store.Restore must precede Attach. Mutation
// metrics are not counted — replay reconstructs history, it does not make
// new history.
func (rb *Rulebase) ApplyChange(ch Change) error {
	return rb.commit(func() (Change, error) {
		if ch.Version != rb.version+1 {
			return Change{}, fmt.Errorf("core: change version %d does not follow rulebase version %d", ch.Version, rb.version)
		}
		ch.Rule = ch.Rule.Clone() // the caller keeps its payload
		if err := rb.apply(ch); err != nil {
			return Change{}, err
		}
		return ch, nil
	})
}

// apply makes the state transition ch records, at ch.Version: it is the one
// code path that changes the rules, the version and the audit log, for live
// mutations and replay alike (UnmarshalJSON's wholesale load aside). An
// added rule is stored as ch.Rule, not a copy; any other change stores an
// updated Clone of the rule (copy-on-write). Callers hold rb.mu.
func (rb *Rulebase) apply(ch Change) error {
	switch ch.Action {
	case "add":
		r := ch.Rule
		if r == nil {
			return fmt.Errorf("core: add change %d has no rule payload", ch.Version)
		}
		if r.ID == "" || r.ID != ch.RuleID {
			return fmt.Errorf("core: add change %d rule id %q does not match entry %q", ch.Version, r.ID, ch.RuleID)
		}
		if _, exists := rb.byID[r.ID]; exists {
			return fmt.Errorf("core: add change %d duplicates rule %q", ch.Version, r.ID)
		}
		if err := checkConfidence(r.Confidence); err != nil {
			return fmt.Errorf("core: add change %d: %w", ch.Version, err)
		}
		rb.byID[r.ID] = len(rb.rules)
		rb.rules = append(rb.rules, r)
		// Advance (never rewind) the auto-ID counter; max semantics keep a
		// concurrent live add from being undone.
		for {
			cur := rb.nextID.Load()
			if int64(ch.NextID) <= cur || rb.nextID.CompareAndSwap(cur, int64(ch.NextID)) {
				break
			}
		}
	case "disable", "enable", "retire", "update":
		i, ok := rb.byID[ch.RuleID]
		if !ok {
			return fmt.Errorf("core: %s change %d targets unknown rule %q", ch.Action, ch.Version, ch.RuleID)
		}
		if ch.Action == "update" {
			if err := checkConfidence(ch.Confidence); err != nil {
				return fmt.Errorf("core: update change %d: %w", ch.Version, err)
			}
		}
		c := rb.rules[i].Clone()
		switch ch.Action {
		case "disable":
			c.Status = Disabled
		case "enable":
			c.Status = Active
		case "retire":
			c.Status = Retired
		default:
			c.Confidence = ch.Confidence
		}
		c.UpdatedAt = ch.Version
		rb.rules[i] = c
	default:
		return fmt.Errorf("core: change %d has unknown action %q", ch.Version, ch.Action)
	}
	rb.version = ch.Version
	rb.audit = append(rb.audit, ch.Entry())
	return nil
}

// checkConfidence rejects a confidence JSON cannot encode: a NaN or infinite
// one would commit and then fail the durability layer's record of it.
func checkConfidence(c float64) error {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("core: confidence %v is not a finite number", c)
	}
	return nil
}

// Clone returns a deep copy of the rule: slices are copied, the compiled
// pattern is shared (patterns are immutable once parsed).
func (r *Rule) Clone() *Rule {
	if r == nil {
		return nil
	}
	c := *r
	if r.AllowedTypes != nil {
		c.AllowedTypes = append([]string(nil), r.AllowedTypes...)
	}
	if r.Guards != nil {
		c.Guards = append([]Guard(nil), r.Guards...)
	}
	return &c
}
