// Package tokenize implements the text normalization and tokenization layer
// shared by every text-facing module in the repository: the rule-pattern
// matcher, the synonym finder, the sequence miner, the learned classifiers,
// and the IE/EM substrates.
//
// The paper's rules apply "relatively simple regexes to product titles"
// (§3.3) after the preprocessing it sketches in §5.2: lowercasing and
// removing certain stop words and characters compiled in a dictionary. This
// package is that dictionary plus the tokenizer.
package tokenize

import (
	"strings"
	"unicode"
)

// DefaultStopwords is the stop-word dictionary applied by NormalizeTokens.
// It mirrors the small hand-compiled list the paper alludes to: glue words
// that carry no product-type signal. Kept deliberately short — over-zealous
// stopping destroys patterns like "2 pack value bundle" that the synonym
// tool uses as context.
var DefaultStopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "and": true,
	"or": true, "for": true, "with": true, "in": true, "on": true,
	"by": true, "to": true, "at": true, "from": true,
}

// Tokenize lower-cases s and splits it into tokens. Letters and digits are
// kept; intra-token '-', '/' and '.' are treated as separators except when a
// '.' sits between digits (sizes such as "38.5" stay one token). Everything
// else is a separator. The result is allocation-friendly: a single pass,
// one output slice.
func Tokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	runes := []rune(s)
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '.' && i > 0 && i < len(runes)-1 &&
			unicode.IsDigit(runes[i-1]) && unicode.IsDigit(runes[i+1]):
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// NormalizeTokens applies the stop-word dictionary to an already tokenized
// title, returning a new slice. Tokens are assumed lower-case (Tokenize
// guarantees this).
func NormalizeTokens(tokens []string) []string {
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if DefaultStopwords[t] {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Normalize is Tokenize followed by NormalizeTokens.
func Normalize(s string) []string { return NormalizeTokens(Tokenize(s)) }

// Join renders tokens back into a canonical single-space string, the form
// used as a map key throughout the library.
func Join(tokens []string) string { return strings.Join(tokens, " ") }

// NGrams returns all character q-grams of s (as a multiset, with duplicates)
// after lower-casing. Strings shorter than q yield a single gram equal to
// the whole string. Used by the EM substrate's Jaccard predicates
// ("tokenized into 3-grams", §6).
func NGrams(s string, q int) []string {
	s = strings.ToLower(s)
	r := []rune(s)
	if len(r) == 0 {
		return nil
	}
	if len(r) <= q {
		return []string{string(r)}
	}
	grams := make([]string, 0, len(r)-q+1)
	for i := 0; i+q <= len(r); i++ {
		grams = append(grams, string(r[i:i+q]))
	}
	return grams
}

// TokenBit maps a token to one of the 64 bits of a title signature: FNV-1a
// over the bytes, one multiplicative mixing step, top six bits. It is the
// hash both sides of the rule-index prefilter agree on — catalog.Item signs
// its title with it and pattern.Parse builds witness masks with it — so it
// must stay a pure function of the token's bytes.
func TokenBit(tok string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tok); i++ {
		h ^= uint64(tok[i])
		h *= 1099511628211
	}
	h ^= h >> 32
	h *= 0x9E3779B97F4A7C15
	return 1 << (h >> 58)
}

// Signature ORs the TokenBit of every token: a 64-bit Bloom filter of the
// token set with one hash. A clear bit proves every token hashing to it
// absent; a set bit proves nothing, so tests against a signature err only
// towards "may be present". Past 64 distinct tokens it saturates and rejects
// nothing.
func Signature(tokens []string) uint64 {
	var sig uint64
	for _, t := range tokens {
		sig |= TokenBit(t)
	}
	return sig
}

// TokenSet returns the deduplicated set of tokens as a map.
func TokenSet(tokens []string) map[string]bool {
	set := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		set[t] = true
	}
	return set
}

// ContainsSubsequence reports whether needle appears in haystack as a
// (not necessarily contiguous) token subsequence, in order. This is the
// matching semantics of the mined rules of §5.2: "a title contains the word
// sequence a1 a2 … an (not necessarily consecutively)".
func ContainsSubsequence(haystack, needle []string) bool {
	if len(needle) == 0 {
		return true
	}
	j := 0
	for _, t := range haystack {
		if t == needle[j] {
			j++
			if j == len(needle) {
				return true
			}
		}
	}
	return false
}

// EditDistance returns the Levenshtein distance between a and b, used by the
// IE substrate's approximate dictionary matching ("approximately matches a
// string in a large given dictionary of brand names", §6).
func EditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	curr := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		curr[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			curr[j] = min3(prev[j]+1, curr[j-1]+1, prev[j-1]+cost)
		}
		prev, curr = curr, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
