// Package kb implements the §6 knowledge-base construction substrate, after
// the Kosmix KB report [27]: a construction pipeline that ingests source
// snapshots into a taxonomy plus an entity table, and a curation layer in
// which analyst edits are not applied destructively but captured as rules
// that are re-applied after every rebuild ("the next day after the
// construction pipeline has been refreshed, these curation rules are being
// applied again"; analysts wrote several thousands of such rules over 3-4
// years).
package kb

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Page is one page of a source snapshot (the Wikipedia stand-in).
type Page struct {
	Name string `json:"name"`
	// Kind is "category" or "entity".
	Kind string `json:"kind"`
	// Parents are category names (for categories: super-categories; for
	// entities: their categories).
	Parents []string `json:"parents,omitempty"`
	Aliases []string `json:"aliases,omitempty"`
}

// Source is a full snapshot.
type Source struct {
	Pages []Page `json:"pages"`
}

// Entity is a KB entity.
type Entity struct {
	Name     string
	Aliases  []string
	Category string
}

// KB is the built knowledge base.
type KB struct {
	// parents maps child category → sorted parent categories.
	parents map[string][]string
	// entities maps canonical name → entity.
	entities map[string]*Entity
	// aliasIndex maps lower-case alias → sorted canonical entity names.
	// Aliases can be ambiguous ("phoenix" the city vs the team); taggers
	// disambiguate by context.
	aliasIndex map[string][]string
}

// Build runs the construction pipeline over a snapshot. Later duplicate
// pages merge into earlier ones (aliases and parents union).
func Build(src *Source) *KB {
	kb := &KB{
		parents:    map[string][]string{},
		entities:   map[string]*Entity{},
		aliasIndex: map[string][]string{},
	}
	for _, pg := range src.Pages {
		switch pg.Kind {
		case "category":
			for _, par := range pg.Parents {
				kb.addEdge(pg.Name, par)
			}
			if _, ok := kb.parents[pg.Name]; !ok {
				kb.parents[pg.Name] = nil
			}
		case "entity":
			cat := ""
			if len(pg.Parents) > 0 {
				cat = pg.Parents[0]
			}
			kb.upsertEntity(pg.Name, cat, pg.Aliases)
		}
	}
	return kb
}

func (kb *KB) addEdge(child, parent string) {
	for _, p := range kb.parents[child] {
		if p == parent {
			return
		}
	}
	kb.parents[child] = append(kb.parents[child], parent)
	sort.Strings(kb.parents[child])
}

func (kb *KB) removeEdge(child, parent string) bool {
	ps := kb.parents[child]
	for i, p := range ps {
		if p == parent {
			kb.parents[child] = append(ps[:i], ps[i+1:]...)
			return true
		}
	}
	return false
}

func (kb *KB) upsertEntity(name, category string, aliases []string) *Entity {
	e := kb.entities[name]
	if e == nil {
		e = &Entity{Name: name, Category: category}
		kb.entities[name] = e
		kb.indexAlias(strings.ToLower(name), name)
	}
	if e.Category == "" {
		e.Category = category
	}
	for _, a := range aliases {
		kb.addAlias(e, a)
	}
	return e
}

// indexAlias registers alias → entity, keeping the candidate list sorted
// and duplicate-free.
func (kb *KB) indexAlias(key, entity string) {
	for _, existing := range kb.aliasIndex[key] {
		if existing == entity {
			return
		}
	}
	kb.aliasIndex[key] = append(kb.aliasIndex[key], entity)
	sort.Strings(kb.aliasIndex[key])
}

// unindexAlias removes entity from an alias's candidate list.
func (kb *KB) unindexAlias(key, entity string) {
	cands := kb.aliasIndex[key]
	for i, c := range cands {
		if c == entity {
			cands = append(cands[:i], cands[i+1:]...)
			break
		}
	}
	if len(cands) == 0 {
		delete(kb.aliasIndex, key)
	} else {
		kb.aliasIndex[key] = cands
	}
}

func (kb *KB) addAlias(e *Entity, alias string) {
	key := strings.ToLower(alias)
	before := len(kb.aliasIndex[key])
	kb.indexAlias(key, e.Name)
	if len(kb.aliasIndex[key]) == before {
		return // already present for this entity
	}
	for _, a := range e.Aliases {
		if a == alias {
			return
		}
	}
	e.Aliases = append(e.Aliases, alias)
	sort.Strings(e.Aliases)
}

// Parents returns the parent categories of child.
func (kb *KB) Parents(child string) []string {
	return append([]string(nil), kb.parents[child]...)
}

// Entity returns the entity with the canonical name, or nil.
func (kb *KB) Entity(name string) *Entity { return kb.entities[name] }

// ResolveAlias returns the canonical entity name for an alias ("" if
// unknown). Ambiguous aliases resolve to the alphabetically first candidate;
// use ResolveAll when disambiguation matters. Case-insensitive.
func (kb *KB) ResolveAlias(alias string) string {
	cands := kb.aliasIndex[strings.ToLower(alias)]
	if len(cands) == 0 {
		return ""
	}
	return cands[0]
}

// ResolveAll returns every candidate entity for an alias (sorted), nil if
// unknown.
func (kb *KB) ResolveAll(alias string) []string {
	return append([]string(nil), kb.aliasIndex[strings.ToLower(alias)]...)
}

// AliasIndex exposes a copy of the alias → candidate-entities map (for
// taggers).
func (kb *KB) AliasIndex() map[string][]string {
	out := make(map[string][]string, len(kb.aliasIndex))
	for k, v := range kb.aliasIndex {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// Stats summarizes the KB.
func (kb *KB) Stats() (categories, entities, aliases int) {
	return len(kb.parents), len(kb.entities), len(kb.aliasIndex)
}

// HasCycle reports whether the taxonomy contains a directed cycle — the
// invariant curation must preserve.
func (kb *KB) HasCycle() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(string) bool
	visit = func(n string) bool {
		color[n] = gray
		for _, p := range kb.parents[n] {
			switch color[p] {
			case gray:
				return true
			case white:
				if visit(p) {
					return true
				}
			}
		}
		color[n] = black
		return false
	}
	names := make([]string, 0, len(kb.parents))
	for n := range kb.parents {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if color[n] == white && visit(n) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Curation rules
// ---------------------------------------------------------------------------

// CurationRule is one captured analyst edit. Op is one of remove-edge,
// add-edge, rename-entity, blacklist-entity, add-alias.
type CurationRule struct {
	Op     string `json:"op"`
	Child  string `json:"child,omitempty"`
	Parent string `json:"parent,omitempty"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Entity string `json:"entity,omitempty"`
	Alias  string `json:"alias,omitempty"`
	Author string `json:"author,omitempty"`
}

// Apply executes the rule against the KB, returning whether it changed
// anything (a no-op is normal: e.g. the source stopped containing the bad
// edge) or an error for malformed rules.
func (r CurationRule) Apply(kb *KB) (bool, error) {
	switch r.Op {
	case "remove-edge":
		return kb.removeEdge(r.Child, r.Parent), nil
	case "add-edge":
		if r.Child == "" || r.Parent == "" {
			return false, fmt.Errorf("kb: add-edge needs child and parent")
		}
		before := len(kb.parents[r.Child])
		kb.addEdge(r.Child, r.Parent)
		return len(kb.parents[r.Child]) != before, nil
	case "rename-entity":
		e := kb.entities[r.From]
		if e == nil {
			return false, nil
		}
		delete(kb.entities, r.From)
		e.Name = r.To
		kb.entities[r.To] = e
		// The old name remains resolvable as an alias of the new name.
		kb.unindexAlias(strings.ToLower(r.From), r.From)
		kb.indexAlias(strings.ToLower(r.From), r.To)
		kb.indexAlias(strings.ToLower(r.To), r.To)
		for _, a := range e.Aliases {
			kb.unindexAlias(strings.ToLower(a), r.From)
			kb.indexAlias(strings.ToLower(a), r.To)
		}
		return true, nil
	case "blacklist-entity":
		e := kb.entities[r.Entity]
		if e == nil {
			return false, nil
		}
		delete(kb.entities, r.Entity)
		kb.unindexAlias(strings.ToLower(r.Entity), r.Entity)
		for _, a := range e.Aliases {
			kb.unindexAlias(strings.ToLower(a), r.Entity)
		}
		return true, nil
	case "add-alias":
		e := kb.entities[r.Entity]
		if e == nil {
			return false, nil
		}
		before := len(e.Aliases)
		kb.addAlias(e, r.Alias)
		return len(e.Aliases) != before, nil
	default:
		return false, fmt.Errorf("kb: unknown curation op %q", r.Op)
	}
}

// CurationLog is the ordered list of captured edits.
type CurationLog struct {
	Rules []CurationRule `json:"rules"`
}

// Append records a new curation rule.
func (l *CurationLog) Append(r CurationRule) { l.Rules = append(l.Rules, r) }

// ReplayReport summarizes one replay.
type ReplayReport struct {
	Applied int
	NoOps   int
	Errors  []error
}

// Replay re-applies every rule in order — the after-rebuild step. Rules
// whose precondition vanished are counted as no-ops, not errors.
func (l *CurationLog) Replay(kb *KB) ReplayReport {
	var rep ReplayReport
	for _, r := range l.Rules {
		changed, err := r.Apply(kb)
		switch {
		case err != nil:
			rep.Errors = append(rep.Errors, err)
		case changed:
			rep.Applied++
		default:
			rep.NoOps++
		}
	}
	return rep
}

// MarshalJSON/UnmarshalJSON round-trip the log for persistence.
func (l *CurationLog) MarshalJSON() ([]byte, error) {
	return json.Marshal(l.Rules)
}

// UnmarshalJSON implements json.Unmarshaler.
func (l *CurationLog) UnmarshalJSON(data []byte) error {
	return json.Unmarshal(data, &l.Rules)
}
