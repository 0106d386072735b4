package tokenize

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Always & Forever Platinaire Diamond Accent Ring",
			[]string{"always", "forever", "platinaire", "diamond", "accent", "ring"}},
		{"1/4 Carat T.W. Diamond Semi-Eternity Ring in 10kt White Gold",
			[]string{"1", "4", "carat", "t", "w", "diamond", "semi", "eternity", "ring", "in", "10kt", "white", "gold"}},
		{"dickies 38in. x 30in. indigo blue relaxed fit denim jeans 13-293snb 38x30",
			[]string{"dickies", "38in", "x", "30in", "indigo", "blue", "relaxed", "fit", "denim", "jeans", "13", "293snb", "38x30"}},
		{"", nil},
		{"   ", nil},
		{"!!!", nil},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeDecimalPreserved(t *testing.T) {
	got := Tokenize("size 38.5 shoe")
	want := []string{"size", "38.5", "shoe"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeTrailingDotSplits(t *testing.T) {
	got := Tokenize("38. inch")
	want := []string{"38", "inch"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Café Blend – 2 Pièces")
	want := []string{"café", "blend", "2", "pièces"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestNormalizeRemovesStopwords(t *testing.T) {
	got := Normalize("the ring of fire and a sword")
	want := []string{"ring", "fire", "sword"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestNormalizeTokensDoesNotMutate(t *testing.T) {
	in := []string{"the", "ring"}
	NormalizeTokens(in)
	if in[0] != "the" || in[1] != "ring" {
		t.Fatal("NormalizeTokens mutated its input")
	}
}

func TestTokensAreLowercaseProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if r >= 'A' && r <= 'Z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTokenizeIdempotentProperty(t *testing.T) {
	// Tokenizing the joined tokens must reproduce the tokens, except that
	// digit.digit tokens may re-split identically; verify full fixpoint.
	f := func(s string) bool {
		once := Tokenize(s)
		twice := Tokenize(Join(once))
		return reflect.DeepEqual(once, twice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNGrams(t *testing.T) {
	got := NGrams("Book", 3)
	want := []string{"boo", "ook"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got := NGrams("ab", 3); !reflect.DeepEqual(got, []string{"ab"}) {
		t.Fatalf("short string: got %v", got)
	}
	if got := NGrams("", 3); got != nil {
		t.Fatalf("empty string: got %v", got)
	}
	if got := NGrams("abc", 3); !reflect.DeepEqual(got, []string{"abc"}) {
		t.Fatalf("exact length: got %v", got)
	}
}

func TestNGramsCountProperty(t *testing.T) {
	f := func(s string) bool {
		r := []rune(s)
		grams := NGrams(s, 3)
		switch {
		case len(r) == 0:
			return grams == nil
		case len(r) <= 3:
			return len(grams) == 1
		default:
			return len(grams) == len(r)-2
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContainsSubsequence(t *testing.T) {
	hay := []string{"dickies", "indigo", "blue", "relaxed", "fit", "denim", "jeans"}
	cases := []struct {
		needle []string
		want   bool
	}{
		{[]string{"dickies", "jeans"}, true},
		{[]string{"fit", "jeans"}, true},
		{[]string{"denim", "jeans"}, true},
		{[]string{"indigo", "fit"}, true},
		{[]string{"jeans", "denim"}, false}, // order matters
		{[]string{"leather"}, false},
		{nil, true},
		{[]string{"dickies", "indigo", "blue", "relaxed", "fit", "denim", "jeans"}, true},
	}
	for _, c := range cases {
		if got := ContainsSubsequence(hay, c.needle); got != c.want {
			t.Errorf("ContainsSubsequence(%v) = %v, want %v", c.needle, got, c.want)
		}
	}
}

func TestContainsSubsequenceRepeatedTokens(t *testing.T) {
	if !ContainsSubsequence([]string{"a", "a"}, []string{"a", "a"}) {
		t.Fatal("repeated needle should match repeated haystack")
	}
	if ContainsSubsequence([]string{"a"}, []string{"a", "a"}) {
		t.Fatal("needle longer than available repeats must not match")
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"abc", "", 3},
		{"same", "same", 0},
		{"ibm", "ibn", 1},
		{"sander", "sanders", 1},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		return EditDistance(a, b) == EditDistance(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenSet(t *testing.T) {
	set := TokenSet([]string{"a", "b", "a"})
	if len(set) != 2 || !set["a"] || !set["b"] {
		t.Fatalf("bad token set: %v", set)
	}
}
