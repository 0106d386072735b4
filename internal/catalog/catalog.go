// Package catalog generates the synthetic product feed that stands in for
// the paper's Walmart marketplace data (see DESIGN.md's substitution table).
//
// The generator reproduces, at laptop scale, the distributional phenomena
// §2.2 identifies: Zipfian head/tail product types, batches of wildly
// varying size from thousands of vendors, vendor-specific vocabulary, and
// concept drift (new subtype terms emerging over time, shifting segment
// mix). Every item carries its ground-truth type for evaluation; production
// components never read it — only evaluators and the simulated crowd do.
package catalog

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/randx"
	"repro/internal/tokenize"
)

// Item is one product record: attribute-value pairs as in the paper's
// Figure 1. "Item ID" and "Title" are always present; most items carry a
// "Description"; some carry more attributes.
type Item struct {
	ID    string
	Attrs map[string]string
	// TrueType is the ground-truth product type. Classifiers must not read
	// it; evaluation and crowd simulation do.
	TrueType string
	// Vendor identifies the submitting marketplace vendor.
	Vendor string
	// Epoch is the batch epoch the item was generated in.
	Epoch int

	tokOnce     sync.Once
	titleTokens []string // computed by tokOnce; nil is a valid cached value

	fpOnce sync.Once
	fp     uint64 // computed by fpOnce; see Fingerprint
}

// Title returns the item's title attribute.
func (it *Item) Title() string { return it.Attrs["Title"] }

// TitleTokens returns the tokenized title, computed exactly once. The
// sync.Once makes the lazy cache safe when the same item is visible to
// several goroutines (batch classification, data indexing) and doubles as
// the "computed" flag, so an empty title — whose token slice is nil — is not
// re-tokenized on every call.
func (it *Item) TitleTokens() []string {
	it.tokOnce.Do(it.tokenizeTitle)
	return it.titleTokens
}

func (it *Item) tokenizeTitle() {
	it.titleTokens = tokenize.Tokenize(it.Attrs["Title"])
}

// RouteKey returns the item's shard routing key: the submitting vendor —
// the paper's tenancy axis (§2.2's batches arrive vendor by vendor, and a
// vendor's vocabulary quirks are exactly what makes its traffic hot or
// pathological together) — falling back to the item ID so routing stays
// total for vendor-less items. Production components may read it (unlike
// TrueType): it is derived from submission metadata, not ground truth.
func (it *Item) RouteKey() string {
	if it.Vendor != "" {
		return it.Vendor
	}
	return it.ID
}

// Relabeled returns a copy of the item with TrueType replaced — the
// analyst/manual-team relabeling operation. Item must not be copied by value
// (it embeds the token-cache sync.Once), so this is the supported way to
// derive a corrected record; the copy shares the attribute map (treated as
// read-only everywhere) and re-tokenizes and re-fingerprints lazily on first
// use, so a clone whose Attrs map is later swapped for an edited copy hashes
// the new content.
func (it *Item) Relabeled(trueType string) *Item {
	return &Item{
		ID:       it.ID,
		Attrs:    it.Attrs,
		TrueType: trueType,
		Vendor:   it.Vendor,
		Epoch:    it.Epoch,
	}
}

// MarshalJSON renders the item in the paper's Figure-1 JSON shape: a flat
// object of attribute-value pairs including "Item ID".
func (it *Item) MarshalJSON() ([]byte, error) {
	m := make(map[string]string, len(it.Attrs)+1)
	for k, v := range it.Attrs {
		m[k] = v
	}
	m["Item ID"] = it.ID
	return json.Marshal(m)
}

// Config parameterizes catalog generation.
type Config struct {
	Seed uint64
	// NumTypes is the total taxonomy size; the curated seed (~50) is
	// extended with synthetic tail types up to this count. Values below the
	// seed size truncate the seed. Default 120.
	NumTypes int
	// NumVendors is the size of the vendor population. Default 40.
	NumVendors int
	// ZipfS is the exponent of the type-popularity distribution. Default 1.05.
	ZipfS float64
	// PNoise is the probability of injecting an off-vocabulary noise token
	// into a title. Default 0.10.
	PNoise float64
}

func (c Config) withDefaults() Config {
	if c.NumTypes == 0 {
		c.NumTypes = 120
	}
	if c.NumVendors == 0 {
		c.NumVendors = 40
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.05
	}
	if c.PNoise == 0 {
		c.PNoise = 0.10
	}
	return c
}

// Vendor models a marketplace vendor: a segment focus and a vocabulary
// style. NewVocabulary vendors describe products with late-epoch and quirky
// terms — the "new vendor who describes clothes using a new vocabulary"
// drill of §2.2.
type Vendor struct {
	Name          string
	FocusSegments []string
	// NewVocabulary biases the vendor toward synonyms with later
	// EmergeEpochs and away from head terms.
	NewVocabulary bool
}

// Catalog is a deterministic product-item generator over a fixed taxonomy.
type Catalog struct {
	cfg     Config
	types   []*TypeSpec
	vendors []Vendor
	zipf    *randx.Zipf
	rng     *randx.Rand
	nextID  int
}

// New builds a catalog from cfg. The taxonomy order (and therefore Zipf
// popularity ranks) is a deterministic shuffle of the seed followed by
// synthetic tail types, so head types mix curated and synthetic entries.
func New(cfg Config) *Catalog {
	cfg = cfg.withDefaults()
	rng := randx.New(cfg.Seed).Split("catalog")

	types := make([]*TypeSpec, 0, cfg.NumTypes)
	for i := range seedTypes {
		if len(types) >= cfg.NumTypes {
			break
		}
		sp := seedTypes[i] // copy
		types = append(types, &sp)
	}
	synRng := rng.Split("synthetic-types")
	used := map[string]bool{}
	for _, t := range types {
		used[t.Name] = true
	}
	for i := 0; len(types) < cfg.NumTypes; i++ {
		noun := syntheticNouns[i%len(syntheticNouns)]
		mat := syntheticMaterials[(i/len(syntheticNouns))%len(syntheticMaterials)]
		name := mat + " " + noun + "s"
		if used[name] {
			continue
		}
		used[name] = true
		types = append(types, synthesizeType(synRng, name, mat, noun, i))
	}

	// Popularity rank: deterministic shuffle so the Zipf head is a mix of
	// curated and synthetic types.
	order := rng.Split("rank").Perm(len(types))
	ranked := make([]*TypeSpec, len(types))
	for i, j := range order {
		ranked[i] = types[j]
	}

	c := &Catalog{
		cfg:   cfg,
		types: ranked,
		zipf:  randx.NewZipf(rng.Split("zipf"), len(ranked), cfg.ZipfS),
		rng:   rng,
	}
	c.vendors = c.makeVendors(cfg.NumVendors)
	return c
}

func synthesizeType(r *randx.Rand, name, mat, noun string, i int) *TypeSpec {
	seg := syntheticSegments[i%len(syntheticSegments)]
	brands := []string{
		syntheticBrandPool[i%len(syntheticBrandPool)],
		syntheticBrandPool[(i+5)%len(syntheticBrandPool)],
	}
	spec := &TypeSpec{
		Name: name, Segment: seg, Synthetic: true,
		HeadTerms: []Term{{Text: noun}, {Text: noun + "s"}},
		Synonyms: []Term{
			{Text: mat + " " + noun},
			{Text: "designer " + noun, EmergeEpoch: 1 + i%3},
		},
		Modifiers: []string{mat, "handmade", "large", "small", "set of 2", "gift"},
		Brands:    brands,
	}
	return spec
}

func (c *Catalog) makeVendors(n int) []Vendor {
	r := c.rng.Split("vendors")
	segs := map[string]bool{}
	for _, t := range c.types {
		segs[t.Segment] = true
	}
	segNames := make([]string, 0, len(segs))
	for s := range segs {
		segNames = append(segNames, s)
	}
	sort.Strings(segNames)
	vendors := make([]Vendor, n)
	for i := range vendors {
		v := Vendor{Name: fmt.Sprintf("vendor-%03d", i)}
		nFocus := 1 + r.Intn(3)
		for f := 0; f < nFocus; f++ {
			v.FocusSegments = append(v.FocusSegments, segNames[r.Intn(len(segNames))])
		}
		v.NewVocabulary = r.Bool(0.15)
		vendors[i] = v
	}
	return vendors
}

// Types returns the taxonomy in popularity-rank order.
func (c *Catalog) Types() []*TypeSpec { return c.types }

// TypeByName returns the spec for name, or nil.
func (c *Catalog) TypeByName(name string) *TypeSpec {
	for _, t := range c.types {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Vendors exposes the vendor population.
func (c *Catalog) Vendors() []Vendor { return c.vendors }

// BatchSpec describes one incoming batch (§2.2: "in the morning a small
// vendor may send in a few tens of items, but hours later a large vendor may
// send in a few millions").
type BatchSpec struct {
	// Size is the number of items.
	Size int
	// Epoch is the logical time of the batch; it gates emerging vocabulary
	// and shifts the segment mix.
	Epoch int
	// Vendor, if non-empty, attributes all items to that vendor and biases
	// types toward the vendor's focus segments. Empty draws vendors
	// per-item.
	Vendor string
	// SegmentBias, if non-empty, multiplies the popularity of types in this
	// segment by BiasFactor — seasonal distribution shift ("today Homes and
	// Garden, tomorrow it shrinks").
	SegmentBias string
	BiasFactor  float64
	// OnlyTypes restricts generation to the named types (corner-case /
	// new-vendor onboarding drills).
	OnlyTypes []string
}

// GenerateBatch produces one batch of items. Generation is deterministic in
// (catalog seed, batch spec, call order).
func (c *Catalog) GenerateBatch(spec BatchSpec) []*Item {
	label := fmt.Sprintf("batch-e%d-v%s-s%s-n%d-id%d", spec.Epoch, spec.Vendor, spec.SegmentBias, spec.Size, c.nextID)
	r := c.rng.Split(label)

	var vendor *Vendor
	if spec.Vendor != "" {
		for i := range c.vendors {
			if c.vendors[i].Name == spec.Vendor {
				vendor = &c.vendors[i]
				break
			}
		}
		if vendor == nil {
			// Unknown vendor name: a brand-new marketplace vendor with new
			// vocabulary, per the scale-up drill.
			vendor = &Vendor{Name: spec.Vendor, NewVocabulary: true}
		}
	}

	var allowed []*TypeSpec
	if len(spec.OnlyTypes) > 0 {
		for _, name := range spec.OnlyTypes {
			if t := c.TypeByName(name); t != nil {
				allowed = append(allowed, t)
			}
		}
	}

	items := make([]*Item, 0, spec.Size)
	for i := 0; i < spec.Size; i++ {
		t := c.drawType(r, spec, vendor, allowed)
		v := vendor
		if v == nil {
			v = &c.vendors[r.Intn(len(c.vendors))]
		}
		items = append(items, c.generateItem(r, t, v, spec.Epoch))
	}
	return items
}

// drawType picks a product type honouring batch bias, vendor focus and the
// Zipf popularity ranks.
func (c *Catalog) drawType(r *randx.Rand, spec BatchSpec, vendor *Vendor, allowed []*TypeSpec) *TypeSpec {
	if len(allowed) > 0 {
		return allowed[r.Intn(len(allowed))]
	}
	for attempt := 0; attempt < 8; attempt++ {
		t := c.types[c.zipf.NextWith(r)]
		if spec.SegmentBias != "" && spec.BiasFactor > 1 && t.Segment != spec.SegmentBias {
			// Rejection-sample toward the biased segment.
			if !r.Bool(1 / spec.BiasFactor) {
				continue
			}
		}
		if vendor != nil && len(vendor.FocusSegments) > 0 {
			inFocus := false
			for _, s := range vendor.FocusSegments {
				if s == t.Segment {
					inFocus = true
					break
				}
			}
			if !inFocus && !r.Bool(0.3) {
				continue
			}
		}
		return t
	}
	return c.types[c.zipf.NextWith(r)]
}

// generateItem synthesizes one product item of type t.
func (c *Catalog) generateItem(r *randx.Rand, t *TypeSpec, v *Vendor, epoch int) *Item {
	c.nextID++
	it := &Item{
		ID:       fmt.Sprintf("ITM%08d", c.nextID),
		Attrs:    map[string]string{},
		TrueType: t.Name,
		Vendor:   v.Name,
		Epoch:    epoch,
	}

	title, titleBrand := c.generateTitle(r, t, v, epoch)
	it.Attrs["Title"] = title

	// Description: ~85% of items (paper: "most product items").
	if r.Bool(0.85) {
		it.Attrs["Description"] = c.generateDescription(r, t, title)
	}
	// Brand attribute: consistent with the title's brand when one appears
	// (the IE substrate's distant-supervision ground truth), occasionally
	// present without a title mention.
	switch {
	case titleBrand != "" && r.Bool(0.8):
		it.Attrs["Brand Name"] = titleBrand
	case titleBrand == "" && len(t.Brands) > 0 && r.Bool(0.2):
		it.Attrs["Brand Name"] = r.PickString(t.Brands)
	}
	// Type-specific attributes, in sorted name order: map iteration order
	// would consume the RNG nondeterministically and break reproducibility.
	attrNames := make([]string, 0, len(t.Attrs))
	for name := range t.Attrs {
		attrNames = append(attrNames, name)
	}
	sort.Strings(attrNames)
	for _, name := range attrNames {
		if !r.Bool(0.9) {
			continue
		}
		it.Attrs[name] = genAttrValue(r, t.Attrs[name])
	}
	// Occasional generic attributes.
	if r.Bool(0.3) {
		it.Attrs["Color"] = r.PickString([]string{"black", "white", "blue", "red", "gray", "green", "ivory", "brown"})
	}
	// Price: always present, log-normal-ish around a per-segment base.
	base := segmentBasePrice[t.Segment]
	if base == 0 {
		base = 25
	}
	price := base * (0.4 + r.Float64()*2.2)
	it.Attrs["Price"] = fmt.Sprintf("%.2f", price)
	return it
}

// segmentBasePrice anchors the synthetic price model; electronics are
// expensive, grocery is cheap — which is what makes §4's "title contains
// Apple but price < $100 → not a phone" guard rules meaningful.
var segmentBasePrice = map[string]float64{
	"electronics": 320, "jewelry": 120, "home": 90, "automotive": 45,
	"apparel": 30, "tools": 70, "media": 18, "grocery": 8, "sports": 55,
	"baby": 35, "office": 12, "pet": 25, "garden": 60, "health": 10,
}

// generateTitle builds a title of the shape
// [brand] [modifiers…] <head|synonym|trap> [suffix] with the drift, vendor
// and headless behaviours described in the lexicon. It also reports the
// brand embedded in the title, if any.
func (c *Catalog) generateTitle(r *randx.Rand, t *TypeSpec, v *Vendor, epoch int) (title, brand string) {
	var parts []string

	if len(t.Brands) > 0 && r.Bool(0.55) {
		brand = r.PickString(t.Brands)
		parts = append(parts, brand)
	}
	nMods := 1 + r.Intn(3)
	for i := 0; i < nMods; i++ {
		switch {
		case v.NewVocabulary && r.Bool(0.6):
			parts = append(parts, vendorQuirkModifiers[r.Intn(len(vendorQuirkModifiers))])
		case len(t.Modifiers) > 0 && r.Bool(0.8):
			parts = append(parts, r.PickString(t.Modifiers))
		default:
			parts = append(parts, sharedModifiers[r.Intn(len(sharedModifiers))])
		}
	}

	pHeadless := t.PHeadless
	if pHeadless == 0 {
		pHeadless = 0.12
	}
	switch {
	case len(t.Traps) > 0 && r.Bool(0.08):
		parts = append(parts, r.PickString(t.Traps))
	case r.Bool(pHeadless):
		// Headless: no type indicator at all; only brand/modifier signal.
	default:
		head := c.pickHead(r, t, v, epoch)
		parts = append(parts, head)
	}

	if r.Bool(0.25) {
		parts = append(parts, r.PickString([]string{"2 pack value bundle", "gift edition", "2014 model", "clearance", "free shipping"}))
	}
	if r.Bool(c.cfg.PNoise) {
		parts = append(parts, noiseToken(r))
	}
	return strings.Join(parts, " "), brand
}

// pickHead chooses the type-indicating noun, honouring emergence epochs and
// vendor vocabulary quirks.
func (c *Catalog) pickHead(r *randx.Rand, t *TypeSpec, v *Vendor, epoch int) string {
	var avail []Term
	for _, s := range t.Synonyms {
		if s.EmergeEpoch <= epoch {
			avail = append(avail, s)
		}
	}
	useSyn := r.Bool(0.45)
	if v.NewVocabulary {
		useSyn = r.Bool(0.85) // new-vocabulary vendors rarely use head terms
		// Prefer the latest-emerging synonyms.
		var late []Term
		for _, s := range avail {
			if s.EmergeEpoch > 0 || s.VendorQuirks {
				late = append(late, s)
			}
		}
		if len(late) > 0 {
			avail = late
		}
	}
	if useSyn && len(avail) > 0 {
		return avail[r.Intn(len(avail))].Text
	}
	return t.HeadTerms[r.Intn(len(t.HeadTerms))].Text
}

func (c *Catalog) generateDescription(r *randx.Rand, t *TypeSpec, title string) string {
	templates := []string{
		"Shop %s online. %s quality from the %s department.",
		"%s - backed by our satisfaction guarantee. A great pick in %s.",
		"Introducing %s, the smart choice for %s shoppers.",
	}
	tpl := templates[r.Intn(len(templates))]
	switch strings.Count(tpl, "%s") {
	case 3:
		return fmt.Sprintf(tpl, title, "Top", t.Segment)
	default:
		return fmt.Sprintf(tpl, title, t.Segment)
	}
}

func genAttrValue(r *randx.Rand, kind string) string {
	switch kind {
	case "isbn":
		return fmt.Sprintf("978%010d", r.Intn(1_000_000_000))
	case "pages":
		return fmt.Sprintf("%d", 80+r.Intn(900))
	case "screen":
		return fmt.Sprintf("%.1f in", 5+r.Float64()*25)
	case "cpu":
		return r.PickString([]string{"quad core 2.4ghz", "octa core 3.1ghz", "dual core 1.8ghz"})
	case "carrier":
		return r.PickString([]string{"unlocked", "gsm", "cdma"})
	case "rating":
		return r.PickString([]string{"G", "PG", "PG-13", "R", "E", "T", "M"})
	case "runtime":
		return fmt.Sprintf("%d min", 60+r.Intn(120))
	case "platform":
		return r.PickString([]string{"console x", "console y", "pc"})
	default:
		return "n/a"
	}
}

func noiseToken(r *randx.Rand) string {
	consonants := "bcdfgklmnprstvz"
	vowels := "aeiou"
	n := 4 + r.Intn(4)
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			b.WriteByte(consonants[r.Intn(len(consonants))])
		} else {
			b.WriteByte(vowels[r.Intn(len(vowels))])
		}
	}
	return b.String()
}

// LabeledData draws n items spread across the taxonomy for use as training /
// validation data, mimicking the §3.1 bootstrap ("manual labeling and manual
// rules"). Coverage follows the same Zipf popularity as live batches, so
// tail types receive little or no training data — exactly the 30%-of-types
// gap §3.3 reports. Epoch 0 vocabulary only.
func (c *Catalog) LabeledData(n int) []*Item {
	return c.GenerateBatch(BatchSpec{Size: n, Epoch: 0})
}

// SplitTraining returns the subset of types that have at least minPerType
// items in the given labeled set — the types learning can handle — and the
// remainder ("no or very little training data", handled primarily by rules).
func SplitTraining(items []*Item, minPerType int) (covered, uncovered map[string]int) {
	counts := map[string]int{}
	for _, it := range items {
		counts[it.TrueType]++
	}
	covered, uncovered = map[string]int{}, map[string]int{}
	for ty, n := range counts {
		if n >= minPerType {
			covered[ty] = n
		} else {
			uncovered[ty] = n
		}
	}
	return covered, uncovered
}
