package pattern

// A program is a pattern compiled for bit-parallel shift-and matching
// (Baeza-Yates & Gonnet, CACM 1992) over integer token IDs: the form a rule
// index keeps for every rule it holds, so deciding a candidate reads one
// short run of words instead of the pattern's elements, alternatives and
// strings. Match stays the reference semantics; a program answers exactly as
// Match does on every title it accepts.
//
// A program is a run of uint16 words, one header per element followed by its
// body:
//
//	header  bit 15 progGap: a .* gap precedes the element
//	        bit 14 progOpt: the element is optional
//	        bits 0–13: body length in words; 0 is one arbitrary token (\w+,
//	        or a \syn slot without golden alternatives)
//	body    the element's alternatives, each its token IDs in order, the
//	        last ID of each with bit 15 (progEnd) set
//
// Token IDs are 1..MaxProgramID and come from a dictionary the caller owns;
// 0 is the ID of a title token no program mentions. A trailing gap is
// dropped: matching is unanchored, so it cannot change the answer.
const (
	progGap   = 1 << 15
	progOpt   = 1 << 14
	progCount = progOpt - 1
	progEnd   = 1 << 15

	// MaxProgramID is the largest token ID a program can hold.
	MaxProgramID = progEnd - 1
	// MaxProgramTitle is the longest title a program matches: its
	// positions 0..63 fill one 64-bit word.
	MaxProgramTitle = 63
)

// AppendProgram appends the pattern's program to dst, taking each literal
// token's ID from id. It reports false, and returns dst unchanged, when the
// pattern has no program form: id answered 0 (or more than MaxProgramID) for
// some token, or an element's alternatives need more than 16,383 words.
func (p *Pattern) AppendProgram(dst []uint16, id func(tok string) int) ([]uint16, bool) {
	start := len(dst)
	var gap uint16
	for i := range p.elems {
		e := &p.elems[i]
		if e.Kind == KindGap {
			gap = progGap
			continue
		}
		h := len(dst)
		dst = append(dst, gap)
		gap = 0
		if e.Optional {
			dst[h] |= progOpt
		}
		if e.Kind == KindAny || e.Kind == KindSyn && len(e.Alts) == 0 {
			continue
		}
		for _, alt := range e.Alts {
			for k, tok := range alt {
				n := id(tok)
				if n < 1 || n > MaxProgramID {
					return dst[:start], false
				}
				w := uint16(n)
				if k == len(alt)-1 {
					w |= progEnd
				}
				dst = append(dst, w)
			}
		}
		body := len(dst) - h - 1
		if body > progCount {
			return dst[:start], false
		}
		dst[h] |= uint16(body)
	}
	return dst, true
}

// IDTitle is a title as a program reads it: the dictionary ID of each of its
// first MaxProgramTitle tokens, 0 for a token no program mentions, and the
// title's full token count. The zero value is the empty title.
type IDTitle struct {
	n   int
	ids [MaxProgramTitle]uint16
}

// Add appends the next title token's ID; past MaxProgramTitle tokens it only
// counts the token.
func (t *IDTitle) Add(id uint16) {
	if t.n < MaxProgramTitle {
		t.ids[t.n] = id
	}
	t.n++
}

// eq returns the positions whose token has the given ID.
func (t *IDTitle) eq(id uint16) uint64 {
	var m uint64
	for i, x := range t.ids[:t.n] {
		if x == id {
			m |= 1 << i
		}
	}
	return m
}

// MatchProgram reports whether the program matches the title, as Match on
// the title's tokens would. ok is false, and matched meaningless, when the
// title has more than MaxProgramTitle tokens; the caller then runs Match.
//
// cur holds the positions a match of the elements so far can end at (bit i:
// just before token i). An alternative a₀…a_{L-1} extends it to
//
//	(cur & ⋀ₖ eq(aₖ)>>k) << L
//
// where eq(a) is the set of positions holding token a; an optional element
// keeps cur as well, a wildcard shifts it by one, and a gap fills it from
// its lowest position to the end.
func MatchProgram(prog []uint16, t *IDTitle) (matched, ok bool) {
	if t.n > MaxProgramTitle {
		return false, false
	}
	full := uint64(1)<<(t.n+1) - 1
	cur := full
	for i := 0; i < len(prog); {
		h := prog[i]
		i++
		if h&progGap != 0 {
			cur = full &^ (cur&-cur - 1)
		}
		var next uint64
		if h&progOpt != 0 {
			next = cur
		}
		body := int(h & progCount)
		if body == 0 {
			next |= cur << 1 & full
		}
		s, k := cur, 0
		for _, w := range prog[i : i+body] {
			if s != 0 {
				s &= t.eq(w&^progEnd) >> k
			}
			k++
			if w&progEnd != 0 {
				next |= s << k
				s, k = cur, 0
			}
		}
		i += body
		if cur = next; cur == 0 {
			return false, true
		}
	}
	return true, true
}
