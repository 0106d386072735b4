package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// AuditEntry records one management action on the rulebase. The audit log is
// what lets a first-responder analyst answer "what changed before accuracy
// degraded?" (§2.2's ongoing-system requirement).
type AuditEntry struct {
	Version uint64 `json:"version"`
	Action  string `json:"action"` // add / update / disable / enable / retire
	RuleID  string `json:"rule_id"`
	Actor   string `json:"actor"`
	Note    string `json:"note,omitempty"`
}

// Rulebase is a thread-safe, versioned repository of rules: the system of
// record that §4 argues industrial systems lack ("tens of thousands of rules
// managed today in an ad-hoc fashion"). Every mutation bumps a logical clock
// and appends to the audit log.
//
// Every state change goes through commit, and every one but UnmarshalJSON's
// initial load through apply, which Commit (every mutator's one write path)
// and ApplyChange share. One analyst intent is one changeset, so one version.
// The version only moves forward, so one version names one rulebase state.
//
// Lock order: commitMu, then mu, which also guards the change subscribers.
// Deliveries run outside mu, so a subscriber may read or cancel; hence
// serve.Engine.release may cancel under its holdMu and persist.Store.Close
// under the store's mutex, which that store's deliveries take.
//
// A stored rule is copy-on-write: once a *Rule has been handed out (Get,
// All, Active, ActiveView, a serving snapshot) it is never written again. A
// lifecycle or confidence change replaces the rule with an updated Clone, so
// readers may use a rule they hold without the lock, and a rule read before a
// mutation keeps the values it had — use Get(id) for the current ones.
type Rulebase struct {
	// commitMu serializes whole commits — state change plus delivery — so
	// subscribers see changes in version order.
	commitMu sync.Mutex

	mu      sync.RWMutex
	rules   []*Rule        // every rule, in insertion order
	byID    map[string]int // rule ID -> position in rules
	version uint64
	audit   []AuditEntry
	nextID  int                  // the auto-ID counter: the last number drawn
	chSubs  map[int]func(Change) // change subscribers (see SubscribeChanges)
	nextSub int
	obs     *obs.Registry // nil = uninstrumented
}

// MetricRulebaseMutations counts the steps of live commits by action label
// (add / disable / enable / retire / update); a changeset counts each step.
const MetricRulebaseMutations = "core_rulebase_mutations_total"

// Instrument attaches an observability registry; every subsequent mutation
// increments MetricRulebaseMutations{action=...}. Pass nil to detach.
func (rb *Rulebase) Instrument(reg *obs.Registry) {
	rb.mu.Lock()
	rb.obs = reg
	rb.mu.Unlock()
}

// NewRulebase returns an empty rulebase.
func NewRulebase() *Rulebase {
	return &Rulebase{byID: map[string]int{}}
}

// Version returns the current logical clock value.
func (rb *Rulebase) Version() uint64 {
	rb.mu.RLock()
	defer rb.mu.RUnlock()
	return rb.version
}

// ActiveView returns the logical clock and the active rules (all kinds, in
// insertion order) from a single critical section, so the pair describes
// exactly one rulebase state. This is the primitive the snapshot-isolated
// serving layer (internal/serve) builds on — reading Version() and Active()
// separately can interleave with a concurrent mutation and yield a torn
// (version, rules) pair.
func (rb *Rulebase) ActiveView() (version uint64, active []*Rule) {
	rb.mu.RLock()
	defer rb.mu.RUnlock()
	active = make([]*Rule, 0, len(rb.rules))
	for _, r := range rb.rules {
		if r.Status == Active {
			active = append(active, r)
		}
	}
	return rb.version, active
}

// commit runs one state change: mutate, under the write lock, returns the
// Change it made (zero when none) or an error. A Change is delivered to the
// subscribers registered before it outside rb.mu, so readers never wait on a
// subscriber, but under commitMu, so every subscriber sees version order.
func (rb *Rulebase) commit(mutate func() (Change, error)) error {
	rb.commitMu.Lock()
	defer rb.commitMu.Unlock()
	rb.mu.Lock()
	ch, err := mutate()
	var fns []func(Change) // the subscribers registered before this version
	if err == nil && ch.Version != 0 {
		for _, fn := range rb.chSubs {
			fns = append(fns, fn)
		}
	}
	rb.mu.Unlock()
	for _, fn := range fns {
		fn(ch)
	}
	return err
}

// Len returns the total number of rules (all statuses).
func (rb *Rulebase) Len() int {
	rb.mu.RLock()
	defer rb.mu.RUnlock()
	return len(rb.rules)
}

// Commit applies ops as one changeset at the next version: the one live write
// path, which every mutator builds on. An op is a Change without Version,
// Actor or NextID: an add carries Rule (an empty ID draws the next auto-ID;
// the rule is stamped, takes actor as author when it has none, and its
// String() is the note); disable, enable and retire carry RuleID and Note
// (an op whose rule is already in that state is dropped, and one moving a
// retired rule is an error); an update also carries a finite Confidence.
// A changeset names each rule at most once and is all or nothing: on any
// error nothing changes, no auto-ID is drawn and nothing is delivered.
// Commit returns the Change applied — the one step, or one whose Ops holds
// the steps in op order — or the zero Change when every op was dropped. The
// audit log gets an entry per step, and subscribers one delivery.
func (rb *Rulebase) Commit(actor string, ops ...Change) (Change, error) {
	return rb.commitOps(actor, ops, "", nil)
}

// commitOps is Commit over ops plus, when pick is non-nil, one action op for
// each rule not retired that pick accepts, with the note pick returns, built
// in insertion order under the write lock: from the state it applies to.
func (rb *Rulebase) commitOps(actor string, ops []Change, action string, pick func(*Rule) (string, bool)) (Change, error) {
	var ch Change
	err := rb.commit(func() (Change, error) {
		for i := 0; pick != nil && i < len(rb.rules); i++ {
			if note, ok := pick(rb.rules[i]); ok && rb.rules[i].Status != Retired {
				ops = append(ops, Change{Action: action, RuleID: rb.rules[i].ID, Note: note})
			}
		}
		var one [1]Change // a one-step commit's step, kept off the heap
		steps, nextID, err := rb.prepare(ops, one[:0])
		if err != nil || len(steps) == 0 {
			return Change{}, err
		}
		ch = Change{Version: rb.version + 1, Actor: actor, NextID: nextID}
		if err := rb.apply(ch, steps); err != nil {
			return Change{}, err
		}
		for i := range steps {
			if rb.obs != nil {
				rb.obs.Counter(MetricRulebaseMutations, "action", steps[i].Action).Inc()
			}
			if steps[i].Rule != nil && len(rb.chSubs) > 0 {
				// Freeze the added rule's content: the caller still holds it
				// and may write it before the record is consumed.
				steps[i].Rule = steps[i].Rule.Clone()
			}
		}
		if len(steps) > 1 {
			ch.Ops = append([]Change(nil), steps...)
		} else {
			steps[0].Version, steps[0].Actor, steps[0].NextID = ch.Version, actor, nextID
			ch = steps[0]
		}
		return ch, nil
	})
	return ch, err
}

// prepare appends ops to steps as steps: each with only its action's
// fields, auto-IDs drawn past the taken ones from a copy of the counter, add
// notes rendered, no-op status changes dropped. It returns them and the
// counter to record (0 without an add); apply checks the rest. Callers hold
// rb.mu.
func (rb *Rulebase) prepare(ops, steps []Change) ([]Change, int, error) {
	next, adds := rb.nextID, false
	named := map[string]bool{} // the changeset's rules so far
	for _, op := range ops {
		s := Change{Action: op.Action, RuleID: op.RuleID, Note: op.Note}
		switch st, status := actionStatus[s.Action]; {
		case s.Action == "add" && op.Rule != nil:
			adds, s.Rule, s.RuleID = true, op.Rule, op.Rule.ID
			for taken := false; s.RuleID == "" || taken; {
				next++
				s.RuleID = fmt.Sprintf("R%06d", next)
				_, taken = rb.byID[s.RuleID]
				taken = taken || named[s.RuleID]
			}
			s.Note = s.Rule.render(s.RuleID)
		case s.Action == "update":
			s.Confidence = op.Confidence
		case status:
			r := rb.get(s.RuleID)
			if r != nil && r.Status == st {
				continue
			}
			if r != nil && r.Status == Retired {
				return nil, 0, fmt.Errorf("core: rule %q is retired and cannot be %s", s.RuleID, s.Action)
			}
		}
		named[s.RuleID] = true
		steps = append(steps, s)
	}
	if !adds {
		next = 0
	}
	return steps, next, nil
}

// Add inserts a rule, assigning its ID and clock stamps, and returns its ID.
// The actor is recorded in the audit log and as the rule author when the
// rule has none.
func (rb *Rulebase) Add(r *Rule, actor string) (string, error) {
	ch, err := rb.Commit(actor, Change{Action: "add", Rule: r})
	return ch.RuleID, err
}

// AddAll inserts a batch of rules as one changeset: one version, or nothing
// when any rule is refused.
func (rb *Rulebase) AddAll(rules []*Rule, actor string) error {
	ops := make([]Change, len(rules))
	for i, r := range rules {
		ops[i] = Change{Action: "add", Rule: r}
	}
	_, err := rb.Commit(actor, ops...)
	return err
}

// Get returns the rule with the given id, or nil.
func (rb *Rulebase) Get(id string) *Rule {
	rb.mu.RLock()
	defer rb.mu.RUnlock()
	return rb.get(id)
}

// get returns the rule with the given id, or nil. Callers hold rb.mu.
func (rb *Rulebase) get(id string) *Rule {
	if i, ok := rb.byID[id]; ok {
		return rb.rules[i]
	}
	return nil
}

// Disable turns a rule off — the per-rule "scale down" of §3.2 ("if that
// rule misclassifies widely, we can simply disable it, with minimal impacts
// on the rest of the system").
func (rb *Rulebase) Disable(id, actor, note string) error {
	_, err := rb.Commit(actor, Change{Action: "disable", RuleID: id, Note: note})
	return err
}

// Enable re-activates a disabled rule ("restore the system to the previous
// state quickly").
func (rb *Rulebase) Enable(id, actor, note string) error {
	_, err := rb.Commit(actor, Change{Action: "enable", RuleID: id, Note: note})
	return err
}

// Retire permanently removes a rule from execution, keeping it for audit.
func (rb *Rulebase) Retire(id, actor, note string) error {
	_, err := rb.Commit(actor, Change{Action: "retire", RuleID: id, Note: note})
	return err
}

// DisableWhere disables, as one changeset, every active rule for which pred
// returns true and returns the affected IDs — the bulk "scale down the bad
// parts" operation (e.g. all rules targeting clothes types when clothes
// classification goes bad). The returned IDs can be passed to EnableAll to
// restore. pred runs under the rulebase lock and must not call the rulebase.
func (rb *Rulebase) DisableWhere(pred func(*Rule) bool, actor, note string) []string {
	return rb.commitWhere("disable", actor, func(r *Rule) (string, bool) { return note, r.Status == Active && pred(r) })
}

// EnableAll re-enables the given rule IDs as one changeset, leaving out
// unknown and retired rules.
func (rb *Rulebase) EnableAll(ids []string, actor, note string) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	rb.commitWhere("enable", actor, func(r *Rule) (string, bool) { return note, want[r.ID] })
}

// commitWhere commits action on the rules pick accepts (see commitOps) and
// returns the IDs it changed.
func (rb *Rulebase) commitWhere(action, actor string, pick func(*Rule) (note string, ok bool)) []string {
	ch, _ := rb.commitOps(actor, nil, action, pick)
	return ch.ruleIDs()
}

// UpdateConfidence records a fresh precision estimate for a rule.
func (rb *Rulebase) UpdateConfidence(id string, conf float64, actor string) error {
	// The audit note allocates; render it before entering the critical
	// section (this is the hottest mutation — every precision re-estimate).
	note := fmt.Sprintf("confidence=%.3f", conf)
	_, err := rb.Commit(actor, Change{Action: "update", RuleID: id, Note: note, Confidence: conf})
	return err
}

// Active returns active rules, optionally filtered by kinds (empty = all
// kinds), in insertion order.
func (rb *Rulebase) Active(kinds ...Kind) []*Rule {
	rb.mu.RLock()
	defer rb.mu.RUnlock()
	want := map[Kind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	var out []*Rule
	for _, r := range rb.rules {
		if r.Status != Active {
			continue
		}
		if len(want) > 0 && !want[r.Kind] {
			continue
		}
		out = append(out, r)
	}
	return out
}

// All returns every rule regardless of status, in insertion order.
func (rb *Rulebase) All() []*Rule {
	rb.mu.RLock()
	defer rb.mu.RUnlock()
	out := make([]*Rule, len(rb.rules))
	copy(out, rb.rules)
	return out
}

// ByTarget returns active rules grouped by target type.
func (rb *Rulebase) ByTarget() map[string][]*Rule {
	out := map[string][]*Rule{}
	for _, r := range rb.Active() {
		if r.TargetType != "" {
			out[r.TargetType] = append(out[r.TargetType], r)
		}
	}
	return out
}

// CountByStatus tallies rules per lifecycle status.
func (rb *Rulebase) CountByStatus() map[Status]int {
	rb.mu.RLock()
	defer rb.mu.RUnlock()
	out := map[Status]int{}
	for _, r := range rb.rules {
		out[r.Status]++
	}
	return out
}

// Audit returns a copy of the audit log.
func (rb *Rulebase) Audit() []AuditEntry {
	rb.mu.RLock()
	defer rb.mu.RUnlock()
	return append([]AuditEntry(nil), rb.audit...)
}

// Stats summarizes the rulebase the way §3.3 reports Chimera's: rule counts
// by kind and status, and the number of distinct target types.
type Stats struct {
	Total       int
	ByKind      map[string]int
	ByStatus    map[string]int
	TargetTypes int
}

// Stats computes summary statistics.
func (rb *Rulebase) Stats() Stats {
	rb.mu.RLock()
	defer rb.mu.RUnlock()
	s := Stats{ByKind: map[string]int{}, ByStatus: map[string]int{}}
	targets := map[string]bool{}
	for _, r := range rb.rules {
		s.Total++
		s.ByKind[r.Kind.String()]++
		s.ByStatus[r.Status.String()]++
		if r.TargetType != "" {
			targets[r.TargetType] = true
		}
	}
	s.TargetTypes = len(targets)
	return s
}

// rulebaseJSON is the serialized form.
type rulebaseJSON struct {
	Version uint64       `json:"version"`
	NextID  int          `json:"next_id"`
	Rules   []ruleJSON   `json:"rules"`
	Audit   []AuditEntry `json:"audit"`
}

// MarshalJSON implements json.Marshaler.
func (rb *Rulebase) MarshalJSON() ([]byte, error) {
	data, _, err := rb.MarshalVersioned()
	return data, err
}

// MarshalVersioned is MarshalJSON plus the version the bytes hold, read in
// the same critical section, so a caller that needs both (a snapshot writer)
// does not parse the bytes back. Each rule is encoded once, in its flat form.
func (rb *Rulebase) MarshalVersioned() ([]byte, uint64, error) {
	rb.mu.RLock()
	defer rb.mu.RUnlock()
	rules := make([]ruleJSON, len(rb.rules)) // "rules": [], never null
	for i, r := range rb.rules {
		rules[i] = r.toJSON()
	}
	data, err := json.Marshal(rulebaseJSON{
		Version: rb.version, NextID: rb.nextID, Rules: rules, Audit: rb.audit,
	})
	return data, rb.version, err
}

// UnmarshalJSON implements json.Unmarshaler as an initializer: it loads only
// into a rulebase that has never committed (version 0) and has no change
// subscriber, and refuses rules or audit entries at version 0, so the version
// only moves forward. A next_id alone at version 0 is accepted because files
// from earlier builds, which drew auto-IDs before committing, may hold one;
// a marshal can no longer see an uncommitted ID. The input is validated in
// full first and the load is one commit: a refused load changes nothing.
func (rb *Rulebase) UnmarshalJSON(data []byte) error {
	var j rulebaseJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Version == 0 && (len(j.Rules) > 0 || len(j.Audit) > 0) {
		return fmt.Errorf("core: serialized rulebase holds %d rules and %d audit entries at version 0",
			len(j.Rules), len(j.Audit))
	}
	rules := make([]*Rule, len(j.Rules))
	for i := range j.Rules {
		rules[i] = new(Rule)
		if err := rules[i].fromJSON(&j.Rules[i]); err != nil {
			return err
		}
	}
	byID := make(map[string]int, len(rules))
	for i, r := range rules {
		if _, dup := byID[r.ID]; dup {
			return fmt.Errorf("core: duplicate rule id %q in serialized rulebase", r.ID)
		}
		byID[r.ID] = i
	}
	return rb.commit(func() (Change, error) {
		if rb.version != 0 {
			return Change{}, fmt.Errorf("core: load into a rulebase at version %d: a load only initializes a fresh rulebase", rb.version)
		}
		if len(rb.chSubs) > 0 {
			return Change{}, fmt.Errorf("core: load into a rulebase with a change subscriber: a load only initializes a fresh rulebase")
		}
		rb.rules, rb.byID, rb.version, rb.nextID, rb.audit = rules, byID, j.Version, j.NextID, j.Audit
		return Change{}, nil
	})
}

// TargetsSorted returns the sorted list of distinct active target types.
func (rb *Rulebase) TargetsSorted() []string {
	set := map[string]bool{}
	for _, r := range rb.Active() {
		if r.TargetType != "" {
			set[r.TargetType] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
