package core

import "fmt"

// Change is one completed rulebase mutation as a self-contained, applyable
// record: the audit entry plus exactly the payload a replayer needs to
// reproduce the state transition (the added rule's content, the new
// confidence, the auto-ID counter). It is the unit the write-ahead log in
// internal/persist appends, and ApplyChange is its inverse.
type Change struct {
	// Entry is the audit entry the mutation appended (version, action, rule
	// ID, actor, note).
	Entry AuditEntry
	// Rule is a deep copy of the rule as of the mutation ("add" only): the
	// content frozen at mutation time, safe to retain and serialize after
	// later mutations touch the live rule.
	Rule *Rule
	// Status is the resulting lifecycle state ("disable"/"enable"/"retire").
	Status Status
	// Confidence is the new precision estimate ("update" only).
	Confidence float64
	// NextID is the auto-ID counter after the mutation ("add" only), so a
	// replayed rulebase assigns the same IDs to future auto-ID adds.
	NextID int
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

// statusForAction maps a lifecycle audit action to the state it produces.
var statusForAction = map[string]Status{
	"disable": Disabled,
	"enable":  Active,
	"retire":  Retired,
}

// ApplyChange replays one recorded mutation onto the rulebase, reproducing
// the exact state transition the original mutation made: same version, same
// audit entry (verbatim, including actor and note), same rule content and
// clock stamps. Records must be applied in order — Entry.Version must be
// exactly Version()+1 — which is how a WAL replayer detects gaps.
//
// Replay is delivered to subscribers like any live mutation, so a serving
// engine tracking the rulebase rebuilds. A durability layer never hears its
// own replay because persist.Store.Restore must precede Attach. Mutation
// metrics are not counted — replay reconstructs history, it does not make
// new history.
func (rb *Rulebase) ApplyChange(ch Change) error {
	return rb.commit(func() (Change, error) {
		if ch.Entry.Version != rb.version+1 {
			return Change{}, fmt.Errorf("core: change version %d does not follow rulebase version %d", ch.Entry.Version, rb.version)
		}
		switch ch.Entry.Action {
		case "add":
			if ch.Rule == nil {
				return Change{}, fmt.Errorf("core: add change %d has no rule payload", ch.Entry.Version)
			}
			r := ch.Rule.Clone()
			if r.ID == "" || r.ID != ch.Entry.RuleID {
				return Change{}, fmt.Errorf("core: add change %d rule id %q does not match entry %q", ch.Entry.Version, r.ID, ch.Entry.RuleID)
			}
			if _, exists := rb.byID[r.ID]; exists {
				return Change{}, fmt.Errorf("core: add change %d duplicates rule %q", ch.Entry.Version, r.ID)
			}
			rb.insert(r)
			// Advance (never rewind) the auto-ID counter; max semantics keep
			// a concurrent live add from being undone.
			for {
				cur := rb.nextID.Load()
				if int64(ch.NextID) <= cur || rb.nextID.CompareAndSwap(cur, int64(ch.NextID)) {
					break
				}
			}
		case "disable", "enable", "retire", "update":
			r := rb.get(ch.Entry.RuleID)
			if r == nil {
				return Change{}, fmt.Errorf("core: %s change %d targets unknown rule %q", ch.Entry.Action, ch.Entry.Version, ch.Entry.RuleID)
			}
			rb.replace(r, ch.Entry.Version, func(c *Rule) {
				if ch.Entry.Action == "update" {
					c.Confidence = ch.Confidence
				} else {
					c.Status = statusForAction[ch.Entry.Action]
				}
			})
		default:
			return Change{}, fmt.Errorf("core: change %d has unknown action %q", ch.Entry.Version, ch.Entry.Action)
		}
		rb.version = ch.Entry.Version
		rb.audit = append(rb.audit, ch.Entry)
		return ch, nil
	})
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
