package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
// wholesale load through apply, which live mutations and ApplyChange share.
// Lock order: commitMu, then mu, then subMu, never the reverse.
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
	epoch   uint64 // load epoch: bumped by every UnmarshalJSON (see State)
	audit   []AuditEntry
	obs     *obs.Registry // nil = uninstrumented

	// nextID is the auto-ID counter. Atomic (not guarded by mu) so Add can
	// assign the ID — and render the allocating audit note from it — before
	// entering the critical section.
	nextID atomic.Int64

	// Change subscribers (see SubscribeChanges). Guarded separately from mu
	// so delivery runs outside the rulebase lock and subscribers may read the
	// rulebase (e.g. take an ActiveView).
	subMu   sync.RWMutex
	chSubs  map[int]func(Change)
	nextSub int
}

// MetricRulebaseMutations counts rulebase mutations by action label
// (add / disable / enable / retire / update).
const MetricRulebaseMutations = "core_rulebase_mutations_total"

// Instrument attaches an observability registry; every subsequent mutation
// increments MetricRulebaseMutations{action=...}. Pass nil to detach.
func (rb *Rulebase) Instrument(reg *obs.Registry) {
	rb.mu.Lock()
	rb.obs = reg
	rb.mu.Unlock()
}

// countMutation records one mutation; callers hold rb.mu.
func (rb *Rulebase) countMutation(action string) {
	if rb.obs != nil {
		rb.obs.Counter(MetricRulebaseMutations, "action", action).Inc()
	}
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

// State names one rulebase state: the load epoch and the version within it.
// A load (UnmarshalJSON) may rewind the version to one the rulebase already
// passed with other content, so the version alone does not name a state; the
// epoch, bumped by every load, tells the two apart.
type State struct {
	Epoch, Version uint64
}

// State returns the current (epoch, version) pair in one read.
func (rb *Rulebase) State() State {
	rb.mu.RLock()
	defer rb.mu.RUnlock()
	return State{rb.epoch, rb.version}
}

// ActiveView returns the logical clock and the active rules (all kinds, in
// insertion order) in one consistent read: both come from a single critical
// section, so the pair describes exactly one rulebase state within the
// current load epoch. StateView is the same read with the epoch.
func (rb *Rulebase) ActiveView() (version uint64, active []*Rule) {
	st, active := rb.StateView()
	return st.Version, active
}

// StateView returns the rulebase state and its active rules (all kinds, in
// insertion order) from a single critical section. This is the primitive the
// snapshot-isolated serving layer (internal/serve) builds on — reading
// State() and Active() separately can interleave with a concurrent mutation
// and yield a torn (state, rules) pair.
func (rb *Rulebase) StateView() (State, []*Rule) {
	rb.mu.RLock()
	defer rb.mu.RUnlock()
	active := make([]*Rule, 0, len(rb.rules))
	for _, r := range rb.rules {
		if r.Status == Active {
			active = append(active, r)
		}
	}
	return State{rb.epoch, rb.version}, active
}

// commit is the rulebase's one write path. mutate runs under the write lock
// and returns the Change it made — the zero Change when it changed nothing —
// or an error. A Change is then delivered to every subscriber registered
// before the commit: outside rb.mu, so readers never wait on a subscriber,
// but still under commitMu, so the next commit waits and every subscriber
// sees changes in version order.
func (rb *Rulebase) commit(mutate func() (Change, error)) error {
	rb.commitMu.Lock()
	defer rb.commitMu.Unlock()
	rb.mu.Lock()
	ch, err := mutate()
	var fns []func(Change)
	if err == nil && ch.Action != "" {
		fns = rb.changeSubs()
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

// Add inserts a rule, assigning its ID and clock stamps. The actor is
// recorded in the audit log and as the rule author when the rule has none.
func (rb *Rulebase) Add(r *Rule, actor string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("core: nil rule")
	}
	if err := checkConfidence(r.Confidence); err != nil {
		return "", err // before an auto-ID is drawn
	}
	// Assign the auto-ID and render the audit note before taking rb.mu: both
	// allocate (fmt formatting over the whole rule), and the serving path
	// contends on this lock for every ActiveView. Auto-IDs are drawn from an
	// atomic counter.
	auto := r.ID == ""
	if auto {
		r.ID = fmt.Sprintf("R%06d", rb.nextID.Add(1))
	}
	note := r.String()
	err := rb.commit(func() (Change, error) {
		if _, exists := rb.byID[r.ID]; exists {
			if !auto {
				return Change{}, fmt.Errorf("core: rule id %q already present", r.ID)
			}
			// An explicit add took the drawn ID: draw on to a free one, so
			// the counter moves only for an add that happens and the change
			// records it.
			for exists {
				r.ID = fmt.Sprintf("R%06d", rb.nextID.Add(1))
				_, exists = rb.byID[r.ID]
			}
			note = r.String()
		}
		v := rb.version + 1
		r.CreatedAt, r.UpdatedAt = v, v
		if r.Author == "" {
			r.Author = actor
		}
		ch, err := rb.applyLive(Change{Version: v, Action: "add", RuleID: r.ID, Actor: actor, Note: note,
			Rule: r, NextID: int(rb.nextID.Load())})
		if err == nil && rb.hasChangeSubs() {
			// Freeze the rule content at mutation time: once rb.mu is
			// released the inserted rule is shared and may be mutated again
			// before the change record is consumed.
			ch.Rule = r.Clone()
		}
		return ch, err
	})
	if err != nil {
		return "", err
	}
	return r.ID, nil
}

// AddAll inserts a batch of rules, stopping at the first error.
func (rb *Rulebase) AddAll(rules []*Rule, actor string) error {
	for _, r := range rules {
		if _, err := rb.Add(r, actor); err != nil {
			return err
		}
	}
	return nil
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

// setStatus transitions a rule's lifecycle state.
func (rb *Rulebase) setStatus(id string, st Status, action, actor, note string) error {
	return rb.commit(func() (Change, error) {
		r := rb.get(id)
		if r == nil {
			return Change{}, fmt.Errorf("core: no rule %q", id)
		}
		if r.Status == Retired && st != Retired {
			return Change{}, fmt.Errorf("core: rule %q is retired and cannot be %s", id, action)
		}
		if r.Status == st {
			return Change{}, nil
		}
		return rb.applyLive(Change{Version: rb.version + 1, Action: action, RuleID: id, Actor: actor, Note: note})
	})
}

// applyLive applies a validated live mutation, built at the next version, and
// counts it. Callers hold rb.mu.
func (rb *Rulebase) applyLive(ch Change) (Change, error) {
	if err := rb.apply(ch); err != nil {
		return Change{}, err
	}
	rb.countMutation(ch.Action)
	return ch, nil
}

// Disable turns a rule off — the per-rule "scale down" of §3.2 ("if that
// rule misclassifies widely, we can simply disable it, with minimal impacts
// on the rest of the system").
func (rb *Rulebase) Disable(id, actor, note string) error {
	return rb.setStatus(id, Disabled, "disable", actor, note)
}

// Enable re-activates a disabled rule ("restore the system to the previous
// state quickly").
func (rb *Rulebase) Enable(id, actor, note string) error {
	return rb.setStatus(id, Active, "enable", actor, note)
}

// Retire permanently removes a rule from execution, keeping it for audit.
func (rb *Rulebase) Retire(id, actor, note string) error {
	return rb.setStatus(id, Retired, "retire", actor, note)
}

// DisableWhere disables every active rule for which pred returns true and
// returns the affected IDs — the bulk "scale down the bad parts" operation
// (e.g. all rules targeting clothes types when clothes classification goes
// bad). The returned IDs can be passed to EnableAll to restore.
func (rb *Rulebase) DisableWhere(pred func(*Rule) bool, actor, note string) []string {
	rb.mu.RLock()
	ids := make([]string, 0)
	for _, r := range rb.rules {
		if r.Status == Active && pred(r) {
			ids = append(ids, r.ID)
		}
	}
	rb.mu.RUnlock()
	for _, id := range ids {
		_ = rb.Disable(id, actor, note)
	}
	return ids
}

// EnableAll re-enables the given rule IDs, ignoring retired rules.
func (rb *Rulebase) EnableAll(ids []string, actor, note string) {
	for _, id := range ids {
		_ = rb.Enable(id, actor, note)
	}
}

// UpdateConfidence records a fresh precision estimate for a rule.
func (rb *Rulebase) UpdateConfidence(id string, conf float64, actor string) error {
	// The audit note allocates; render it before entering the critical
	// section (this is the hottest mutation — every precision re-estimate).
	note := fmt.Sprintf("confidence=%.3f", conf)
	return rb.commit(func() (Change, error) {
		if rb.get(id) == nil {
			return Change{}, fmt.Errorf("core: no rule %q", id)
		}
		return rb.applyLive(Change{Version: rb.version + 1, Action: "update", RuleID: id, Actor: actor, Note: note, Confidence: conf})
	})
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
		Version: rb.version, NextID: int(rb.nextID.Load()), Rules: rules, Audit: rb.audit,
	})
	return data, rb.version, err
}

// UnmarshalJSON implements json.Unmarshaler. The input is decoded and
// validated in full before the rulebase is touched, so a failed load leaves
// it exactly as it was. A successful load starts a new load epoch (see
// State) and is one commit: subscribers receive
// an ActionLoad pseudo-change at the loaded version (a wholesale replacement
// is not an incremental mutation — a durability layer responds by
// re-snapshotting, not appending).
func (rb *Rulebase) UnmarshalJSON(data []byte) error {
	var j rulebaseJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
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
		rb.rules, rb.byID = rules, byID
		rb.version = j.Version
		rb.epoch++
		rb.nextID.Store(int64(j.NextID))
		rb.audit = j.Audit
		return Change{Version: j.Version, Action: ActionLoad}, nil
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
