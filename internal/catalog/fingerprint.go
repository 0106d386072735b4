package catalog

import "sort"

// FNV-1a 64-bit parameters (hash/fnv is avoided here to keep the hot path
// allocation-free: the stdlib hasher is an interface behind a pointer).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

// fmix64 is the murmur3 finalizer: FNV-1a alone mixes low bits poorly for
// near-identical inputs (sequential item IDs), and the serving cache shards
// on the fingerprint's low bits.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return h
}

// Fingerprint returns the item's canonical content hash: a stable 64-bit
// digest of everything the classifier stages can observe — the item ID, the
// attribute map in sorted key order, and the tokenized title. It is the
// decision cache's key (paired with a stamp: rulebase state and model
// generation), so the contract is:
//
//   - deterministic: the same logical content always hashes to the same
//     value, across processes and map iteration orders (keys are sorted);
//   - classification-complete: two items with equal fingerprints present
//     identical inputs to every rule and to every learner (equal
//     learn.Features, so bit-equal predictions from one model), so a cached
//     decision for one is a correct decision for the other;
//   - ground-truth-blind: TrueType is deliberately excluded — production
//     components must not read it (see the Item doc), and a Relabeled clone
//     with unchanged attributes classifies identically, so it shares the
//     fingerprint. A clone whose Attrs map was swapped for edited content
//     hashes differently (the clone's fingerprint cache starts empty).
//
// Field and element boundaries are delimited with tag bytes so ambiguous
// concatenations ("ab"+"c" vs "a"+"bc", attr key vs value) cannot collide
// structurally. Computed once per item (sync.Once, same pattern as
// TitleTokens) and safe for concurrent use.
func (it *Item) Fingerprint() uint64 {
	it.fpOnce.Do(func() {
		h := uint64(fnvOffset64)
		h = fnvString(h, it.ID)
		h = fnvByte(h, 0xF0)
		keys := make([]string, 0, len(it.Attrs))
		for k := range it.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h = fnvString(h, k)
			h = fnvByte(h, 0xF1)
			h = fnvString(h, it.Attrs[k])
			h = fnvByte(h, 0xF2)
		}
		for _, tok := range it.TitleTokens() {
			h = fnvString(h, tok)
			h = fnvByte(h, 0xF3)
		}
		it.fp = fmix64(h)
	})
	return it.fp
}
