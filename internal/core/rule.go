// Package core is the paper's primary contribution rendered as a library:
// rule management for semantics-intensive Big Data systems. It provides the
// rule model (whitelist/blacklist pattern rules, attribute rules, gate and
// filter rules — §3.3), a versioned rulebase with the scale-down/scale-up
// controls §2.2 demands, rule and data indexes for execution at tens of
// thousands of rules (§4, §5.3), sequential/indexed/parallel executors with
// whitelist-before-blacklist semantics, the order-independence property
// checker (§4 "rule system properties"), and the maintenance analyses
// (subsumption, overlap, duplicates, staleness, consolidation — §4 "rule
// maintenance").
package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/pattern"
)

// Kind enumerates the rule families of the Chimera architecture (§3.3).
type Kind int

const (
	// Whitelist rules assert: title matches pattern → item is TargetType.
	Whitelist Kind = iota
	// Blacklist rules assert: title matches pattern → item is NOT TargetType.
	Blacklist
	// AttrExists rules assert: item has attribute Attr → item is TargetType
	// ("if a product has an isbn attribute then it is a book").
	AttrExists
	// AttrValue rules constrain: attribute Attr equals Value → item's type
	// is one of AllowedTypes ("Brand Name = Apple → laptop, phone, …").
	AttrValue
	// Gate rules let the Gate Keeper classify an item immediately,
	// bypassing the classifiers (§3.3 Figure 2). Semantics of the match are
	// the same as Whitelist; the pipeline treats them specially.
	Gate
	// Filter rules kill final predictions of TargetType, routing the items
	// to manual classification (the §3.2 "business requirements" rules).
	Filter
	// TypeRestrict rules constrain rather than assert: title matches
	// pattern → item's type is one of AllowedTypes. This is the §4
	// rule-language extension "if the title contains any word from a given
	// dictionary then the product is either a PC or a laptop".
	TypeRestrict
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Whitelist:
		return "whitelist"
	case Blacklist:
		return "blacklist"
	case AttrExists:
		return "attr-exists"
	case AttrValue:
		return "attr-value"
	case Gate:
		return "gate"
	case Filter:
		return "filter"
	case TypeRestrict:
		return "type-restrict"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Status is a rule's lifecycle state.
type Status int

const (
	// Active rules participate in execution.
	Active Status = iota
	// Disabled rules are temporarily off — the paper's "scale down"
	// mechanism. They can be re-enabled without losing provenance.
	Disabled
	// Retired rules are permanently removed from execution but kept for
	// audit (subsumed, stale, or imprecise rules end up here).
	Retired
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Disabled:
		return "disabled"
	case Retired:
		return "retired"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Rule is one managed rule. Pattern-based kinds (Whitelist, Blacklist, Gate)
// carry a compiled pattern; attribute kinds carry Attr/Value; Filter carries
// only TargetType.
type Rule struct {
	ID   string
	Kind Kind
	// Pattern source text (pattern kinds only).
	Source string
	// TargetType is the asserted (or denied / filtered) product type.
	TargetType string
	// Attr / Value for attribute rules.
	Attr  string
	Value string
	// AllowedTypes for AttrValue rules.
	AllowedTypes []string

	// Guards are additional attribute-side conditions (§4's rule-language
	// extension: pattern AND price < 100, …). All must hold for the rule to
	// fire.
	Guards []Guard

	// Management metadata.
	Author     string
	Provenance string // "analyst", "mined", "synonym-tool", "curation", …
	Confidence float64
	Status     Status
	CreatedAt  uint64 // logical clock from the rulebase
	UpdatedAt  uint64
	Note       string

	compiled *pattern.Pattern
}

// NewWhitelist compiles a whitelist rule src → target.
func NewWhitelist(src, target string) (*Rule, error) {
	return newPatternRule(Whitelist, src, target)
}

// NewBlacklist compiles a blacklist rule src → NOT target.
func NewBlacklist(src, target string) (*Rule, error) {
	return newPatternRule(Blacklist, src, target)
}

// NewGate compiles a gate rule src → target (immediate classification).
func NewGate(src, target string) (*Rule, error) {
	return newPatternRule(Gate, src, target)
}

func newPatternRule(kind Kind, src, target string) (*Rule, error) {
	if strings.TrimSpace(target) == "" {
		return nil, fmt.Errorf("core: %s rule needs a target type", kind)
	}
	p, err := pattern.Parse(src)
	if err != nil {
		return nil, err
	}
	if p.HasSyn() {
		return nil, fmt.Errorf("core: pattern %q still contains a \\syn slot; expand it before deploying", src)
	}
	return &Rule{Kind: kind, Source: src, TargetType: target, Confidence: 1, compiled: p}, nil
}

// NewAttrExists builds an attribute-existence rule: has attr → target.
func NewAttrExists(attr, target string) (*Rule, error) {
	if attr == "" || target == "" {
		return nil, fmt.Errorf("core: attr-exists rule needs attr and target")
	}
	return &Rule{Kind: AttrExists, Attr: attr, TargetType: target, Confidence: 1}, nil
}

// NewAttrValue builds an attribute-value rule: attr == value → one of allowed.
func NewAttrValue(attr, value string, allowed []string) (*Rule, error) {
	if attr == "" || value == "" || len(allowed) == 0 {
		return nil, fmt.Errorf("core: attr-value rule needs attr, value and allowed types")
	}
	return &Rule{Kind: AttrValue, Attr: attr, Value: value, AllowedTypes: append([]string(nil), allowed...), Confidence: 1}, nil
}

// NewFilter builds a filter rule killing predictions of target.
func NewFilter(target string) (*Rule, error) {
	if target == "" {
		return nil, fmt.Errorf("core: filter rule needs a target type")
	}
	return &Rule{Kind: Filter, TargetType: target, Confidence: 1}, nil
}

// NewTypeRestrict builds a constraint rule: title matches src → the item's
// type is one of allowed. Dictionary-style sources ((desktop | tower | pc |
// workstation)) express the paper's "any word from a given dictionary"
// example.
func NewTypeRestrict(src string, allowed []string) (*Rule, error) {
	if len(allowed) == 0 {
		return nil, fmt.Errorf("core: type-restrict rule needs allowed types")
	}
	p, err := pattern.Parse(src)
	if err != nil {
		return nil, err
	}
	if p.HasSyn() {
		return nil, fmt.Errorf("core: pattern %q still contains a \\syn slot; expand it before deploying", src)
	}
	return &Rule{
		Kind: TypeRestrict, Source: src,
		AllowedTypes: append([]string(nil), allowed...),
		Confidence:   1, compiled: p,
	}, nil
}

// Pattern returns the compiled pattern for pattern kinds (nil otherwise).
func (r *Rule) Pattern() *pattern.Pattern { return r.compiled }

// IsPatternKind reports whether the rule matches on the title pattern.
func (r *Rule) IsPatternKind() bool {
	return r.Kind == Whitelist || r.Kind == Blacklist || r.Kind == Gate || r.Kind == TypeRestrict
}

// asserting reports whether a match of the rule asserts its target type
// (Verdict.AssertedBy) — the kinds a veto or constraint can override.
func (r *Rule) asserting() bool {
	return r.Kind == Whitelist || r.Kind == Gate || r.Kind == AttrExists
}

// vetoing reports whether a match of the rule vetoes its target type
// (Verdict.Vetoes).
func (r *Rule) vetoing() bool { return r.Kind == Blacklist }

// constraining reports whether a match of the rule restricts the admissible
// types to its AllowedTypes (Verdict.Admits).
func (r *Rule) constraining() bool { return r.Kind == AttrValue || r.Kind == TypeRestrict }

// Matches reports whether the rule's condition holds for the item.
// For Filter rules it reports whether the rule applies to a *prediction* of
// r.TargetType, so item-level Matches is always false.
func (r *Rule) Matches(it *catalog.Item) bool {
	var base bool
	switch r.Kind {
	case Whitelist, Blacklist, Gate, TypeRestrict:
		base = r.compiled.Match(it.TitleTokens())
	case AttrExists:
		_, base = it.Attrs[r.Attr]
	case AttrValue:
		v, ok := it.Attrs[r.Attr]
		base = ok && strings.EqualFold(v, r.Value)
	default:
		return false
	}
	return base && r.guardsHold(it)
}

// guardsHold reports whether every guard of the rule holds for the item: the
// part of Matches left once the pattern or attribute condition has matched.
func (r *Rule) guardsHold(it *catalog.Item) bool {
	for _, g := range r.Guards {
		if !g.Holds(it) {
			return false
		}
	}
	return true
}

// String renders a compact human-readable form.
func (r *Rule) String() string { return r.render(r.ID) }

// render is String with the rule's ID taken to be id.
func (r *Rule) render(id string) string {
	var s string
	switch r.Kind {
	case Whitelist, Gate:
		s = fmt.Sprintf("[%s %s] %s → %s", id, r.Kind, r.Source, r.TargetType)
	case Blacklist:
		s = fmt.Sprintf("[%s %s] %s → NOT %s", id, r.Kind, r.Source, r.TargetType)
	case AttrExists:
		s = fmt.Sprintf("[%s %s] has(%s) → %s", id, r.Kind, r.Attr, r.TargetType)
	case AttrValue:
		s = fmt.Sprintf("[%s %s] %s=%s → one of %v", id, r.Kind, r.Attr, r.Value, r.AllowedTypes)
	case Filter:
		s = fmt.Sprintf("[%s %s] kill predictions of %s", id, r.Kind, r.TargetType)
	case TypeRestrict:
		s = fmt.Sprintf("[%s %s] %s → one of %v", id, r.Kind, r.Source, r.AllowedTypes)
	default:
		s = fmt.Sprintf("[%s unknown]", id)
	}
	for _, g := range r.Guards {
		s += " [if " + g.String() + "]"
	}
	return s
}

// ruleJSON is the serialized form of a rule.
type ruleJSON struct {
	ID           string   `json:"id"`
	Kind         string   `json:"kind"`
	Source       string   `json:"source,omitempty"`
	TargetType   string   `json:"target_type,omitempty"`
	Attr         string   `json:"attr,omitempty"`
	Value        string   `json:"value,omitempty"`
	AllowedTypes []string `json:"allowed_types,omitempty"`
	Guards       []Guard  `json:"guards,omitempty"`
	Author       string   `json:"author,omitempty"`
	Provenance   string   `json:"provenance,omitempty"`
	Confidence   float64  `json:"confidence"`
	Status       string   `json:"status"`
	CreatedAt    uint64   `json:"created_at"`
	UpdatedAt    uint64   `json:"updated_at"`
	Note         string   `json:"note,omitempty"`
}

var kindNames = map[string]Kind{
	"whitelist": Whitelist, "blacklist": Blacklist, "attr-exists": AttrExists,
	"attr-value": AttrValue, "gate": Gate, "filter": Filter,
	"type-restrict": TypeRestrict,
}

var statusNames = map[string]Status{
	"active": Active, "disabled": Disabled, "retired": Retired,
}

// toJSON returns the rule's serialized form. It shares the rule's slices, so
// it is for encoding only.
func (r *Rule) toJSON() ruleJSON {
	return ruleJSON{
		ID: r.ID, Kind: r.Kind.String(), Source: r.Source,
		TargetType: r.TargetType, Attr: r.Attr, Value: r.Value,
		AllowedTypes: r.AllowedTypes, Guards: r.Guards, Author: r.Author,
		Provenance: r.Provenance, Confidence: r.Confidence,
		Status: r.Status.String(), CreatedAt: r.CreatedAt,
		UpdatedAt: r.UpdatedAt, Note: r.Note,
	}
}

// MarshalJSON implements json.Marshaler. Encoders of the rulebase and of a
// Change encode toJSON's flat form inside their own, never a nested call of
// this method: json.Marshal would validate and compact its output again.
func (r *Rule) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.toJSON())
}

// UnmarshalJSON implements json.Unmarshaler, recompiling patterns.
func (r *Rule) UnmarshalJSON(data []byte) error {
	var j ruleJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	return r.fromJSON(&j)
}

// fromJSON sets r from its serialized form: the one conversion a decoded rule
// takes, alone or inside a rulebase.
func (r *Rule) fromJSON(j *ruleJSON) error {
	kind, ok := kindNames[j.Kind]
	if !ok {
		return fmt.Errorf("core: unknown rule kind %q", j.Kind)
	}
	status, ok := statusNames[j.Status]
	if !ok {
		return fmt.Errorf("core: unknown rule status %q", j.Status)
	}
	for _, g := range j.Guards {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	*r = Rule{
		ID: j.ID, Kind: kind, Source: j.Source, TargetType: j.TargetType,
		Attr: j.Attr, Value: j.Value, AllowedTypes: j.AllowedTypes,
		Guards: j.Guards, Author: j.Author, Provenance: j.Provenance,
		Confidence: j.Confidence, Status: status, CreatedAt: j.CreatedAt,
		UpdatedAt: j.UpdatedAt, Note: j.Note,
	}
	if r.IsPatternKind() {
		p, err := pattern.Parse(r.Source)
		if err != nil {
			return fmt.Errorf("core: recompiling rule %s: %w", r.ID, err)
		}
		r.compiled = p
	}
	return nil
}
