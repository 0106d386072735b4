package core

import (
	"encoding/json"
	"fmt"
	"math"
)

// Change is one commit as a self-contained, applyable record: the audit
// entry's fields plus exactly the payload a replayer needs (the added rule's
// content, the new confidence, the auto-ID counter). A commit of one step is
// that step, flat; one of several holds them in Ops. It is the record the
// write-ahead log in internal/persist frames, so changeJSON's keys are the
// on-disk format: keep them, their order and their omitempty flags.
type Change struct {
	Version uint64
	Action  string // add / update / disable / enable / retire; "" with Ops
	RuleID  string
	Actor   string
	Note    string
	// Rule is the added rule's content frozen at mutation time ("add" only),
	// safe to retain and serialize after later mutations touch the live rule.
	Rule *Rule
	// Confidence is the new precision estimate ("update" only).
	Confidence float64
	// NextID is the auto-ID counter after a commit with an add, so a
	// replayed rulebase assigns the same IDs to future auto-ID adds.
	NextID int
	// Ops are the steps of a commit of several, in op order, each without
	// Version, Actor or NextID.
	Ops []Change
}

// changeJSON is Change's serialized form, with the added rule in its flat
// form so a record is encoded and decoded in one pass. A one-step record
// never has an empty version or action, so their omitempty flags leave its
// bytes as they were before Ops existed; they keep the steps of Ops short.
type changeJSON struct {
	Version    uint64    `json:"v,omitempty"`
	Action     string    `json:"action,omitempty"`
	RuleID     string    `json:"rule_id,omitempty"`
	Actor      string    `json:"actor,omitempty"`
	Note       string    `json:"note,omitempty"`
	Rule       *ruleJSON `json:"rule,omitempty"`
	Confidence float64   `json:"confidence,omitempty"`
	NextID     int       `json:"next_id,omitempty"`
	Ops        []Change  `json:"ops,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (ch Change) MarshalJSON() ([]byte, error) {
	j := changeJSON{
		Version: ch.Version, Action: ch.Action, RuleID: ch.RuleID, Actor: ch.Actor,
		Note: ch.Note, Confidence: ch.Confidence, NextID: ch.NextID, Ops: ch.Ops,
	}
	if ch.Rule != nil {
		r := ch.Rule.toJSON()
		j.Rule = &r
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler, recompiling the added rules'
// patterns.
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
		Note: j.Note, Rule: r, Confidence: j.Confidence, NextID: j.NextID, Ops: j.Ops,
	}
	return nil
}

// ruleIDs returns the rules ch's steps name, in order.
func (ch Change) ruleIDs() []string {
	if len(ch.Ops) == 0 && ch.Action != "" {
		return []string{ch.RuleID}
	}
	ids := make([]string, len(ch.Ops))
	for i := range ch.Ops {
		ids[i] = ch.Ops[i].RuleID
	}
	return ids
}

// SubscribeChanges registers fn to receive every later commit — a live
// changeset or an ApplyChange replay — as one applyable Change, and returns
// the version as of registration, read atomically with it: fn receives
// exactly the versions after it, in order, on the committing goroutine,
// outside the rulebase lock, and the next commit waits for fn. fn may read
// the rulebase or cancel but not mutate it, and should be fast (typically a
// non-blocking send). Registration and cancel take the write lock. A
// subscribed rulebase refuses a load, so fn never sees the state replaced.
func (rb *Rulebase) SubscribeChanges(fn func(Change)) (cancel func(), version uint64) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.chSubs == nil {
		rb.chSubs = map[int]func(Change){}
	}
	id := rb.nextSub
	rb.nextSub++
	rb.chSubs[id] = fn
	return func() {
		rb.mu.Lock()
		delete(rb.chSubs, id)
		rb.mu.Unlock()
	}, rb.version
}

// ApplyChange replays one recorded commit, reproducing the transition it made:
// same version, audit entries, rule content and stamps, every step of a
// changeset or none. Version must be exactly Version()+1, which is how a WAL
// replayer detects gaps. Replay is delivered to subscribers like a live
// commit (a durability layer never hears its own, as persist.Store.Restore
// precedes Attach) and is not counted in the mutation metric.
func (rb *Rulebase) ApplyChange(ch Change) error {
	return rb.commit(func() (Change, error) {
		if ch.Version != rb.version+1 {
			return Change{}, fmt.Errorf("core: change version %d does not follow rulebase version %d", ch.Version, rb.version)
		}
		// The caller keeps its payload.
		ch.Rule = ch.Rule.Clone()
		ch.Ops = append([]Change(nil), ch.Ops...)
		for i := range ch.Ops {
			ch.Ops[i].Rule = ch.Ops[i].Rule.Clone()
		}
		steps := ch.Ops
		if len(steps) == 0 {
			steps = []Change{ch}
		}
		if err := rb.apply(ch, steps); err != nil {
			return Change{}, err
		}
		return ch, nil
	})
}

// actionStatus maps each lifecycle action to the status it sets.
var actionStatus = map[string]Status{"disable": Disabled, "enable": Active, "retire": Retired}

// apply makes the transition ch records, at ch.Version, whose steps are steps
// (its Ops, or ch itself): the one code path that changes the rules, the
// version and the audit log (UnmarshalJSON's initial load aside). It checks
// every step against the state before the commit, and that no rule is named
// twice, before it changes anything. An added rule is stored as its step's
// Rule and stamped as Commit says (a replayed one already carries those
// stamps); another step stores an updated Clone (copy-on-write). Callers hold
// rb.mu.
func (rb *Rulebase) apply(ch Change, steps []Change) error {
	named := map[string]bool{}
	for i := range steps {
		s := &steps[i]
		_, exists := rb.byID[s.RuleID]
		_, status := actionStatus[s.Action]
		conf := s.Confidence
		switch {
		case s.Action == "add" && s.Rule != nil && s.RuleID != "" && !exists && (s.Rule.ID == "" || s.Rule.ID == s.RuleID):
			conf = s.Rule.Confidence
		case s.Action == "add":
			return fmt.Errorf("core: add change %d: rule %q missing, taken or not the payload's", ch.Version, s.RuleID)
		case !status && s.Action != "update":
			return fmt.Errorf("core: change %d has unknown action %q", ch.Version, s.Action)
		case !exists:
			return fmt.Errorf("core: %s change %d targets unknown rule %q", s.Action, ch.Version, s.RuleID)
		}
		if err := checkConfidence(conf); err != nil {
			return fmt.Errorf("core: %s change %d: %w", s.Action, ch.Version, err)
		}
		if named[s.RuleID] {
			return fmt.Errorf("core: change %d names rule %q twice", ch.Version, s.RuleID)
		}
		named[s.RuleID] = true
	}
	for i := range steps {
		s := &steps[i]
		if r := s.Rule; s.Action == "add" {
			r.ID, r.CreatedAt, r.UpdatedAt = s.RuleID, ch.Version, ch.Version
			if r.Author == "" {
				r.Author = ch.Actor
			}
			rb.byID[r.ID] = len(rb.rules)
			rb.rules = append(rb.rules, r)
		} else {
			j := rb.byID[s.RuleID]
			c := rb.rules[j].Clone()
			if st, ok := actionStatus[s.Action]; ok {
				c.Status = st
			} else {
				c.Confidence = s.Confidence
			}
			c.UpdatedAt = ch.Version
			rb.rules[j] = c
		}
		rb.audit = append(rb.audit, AuditEntry{ch.Version, s.Action, s.RuleID, ch.Actor, s.Note})
	}
	rb.version = ch.Version
	rb.nextID = max(rb.nextID, ch.NextID)
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
