package textutil

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// refTokenize is the rune-slice tokenizer Tokenize replaced, kept as the
// differential oracle. Its offsets count len(string(r)) per rune, so an
// invalid byte (decoded as U+FFFD) advances them by 3 instead of 1; only
// Text, Lower and Index are comparable on invalid UTF-8.
func refTokenize(text string) []Token {
	var tokens []Token
	runes := []rune(text)
	n := len(runes)
	byteOff := 0
	i := 0
	for i < n {
		r := runes[i]
		if !refIsWordRune(r) {
			byteOff += len(string(r))
			i++
			continue
		}
		start := i
		startOff := byteOff
		for i < n {
			r = runes[i]
			if refIsWordRune(r) {
				byteOff += len(string(r))
				i++
				continue
			}
			if isConnector(r) && i+1 < n && refIsWordRune(runes[i+1]) {
				byteOff += len(string(r))
				i++
				continue
			}
			break
		}
		word := string(runes[start:i])
		tokens = append(tokens, Token{
			Text:   word,
			Lower:  strings.ToLower(word),
			Index:  len(tokens),
			Offset: startOff,
		})
	}
	return tokens
}

func refIsWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// refContainsTerm is the lower-casing containment test that relational
// predicates and the naive keyword baseline used before ContainsTerm.
func refContainsTerm(text, lowerTok string) bool {
	lt := strings.ToLower(text)
	idx := 0
	for {
		i := strings.Index(lt[idx:], lowerTok)
		if i < 0 {
			return false
		}
		start := idx + i
		end := start + len(lowerTok)
		beforeOK := start == 0 || !isWordByte(lt[start-1])
		afterOK := end == len(lt) || !isWordByte(lt[end])
		if beforeOK && afterOK {
			return true
		}
		idx = start + 1
	}
}

// refContainsWord is ContainsWord's definition: some token's Lower.
func refContainsWord(text, lower string) bool {
	for _, tok := range refTokenize(text) {
		if tok.Lower == lower {
			return true
		}
	}
	return false
}

// edgeAlphabet mixes ASCII word and connector bytes with the runes whose
// case folding changes byte length or is not a simple ASCII shift: "İ"
// (two bytes, lowers to ASCII "i"), "ß", the titlecase "ǅ", U+212A
// Kelvin (lowers to ASCII "k"), a CJK letter, a literal U+FFFD, a
// combining mark, and invalid UTF-8 bytes.
var edgeAlphabet = []string{
	"a", "b", "k", "i", "s", "A", "B", "K", "I", "S", "0", "7",
	"-", "_", ".", " ", ",", "(",
	"İ", "ß", "ǅ", "\u212A", "東", "\uFFFD", "\u0307", "é", "É", "Σ",
	"\xff", "\xc3", "\xe2\x84",
}

func randomEdgeString(rng *rand.Rand, maxParts int) string {
	var b strings.Builder
	for n := rng.Intn(maxParts + 1); n > 0; n-- {
		b.WriteString(edgeAlphabet[rng.Intn(len(edgeAlphabet))])
	}
	return b.String()
}

// randomTerm draws a containment probe: usually the lower form of a token
// of text (so matches are common), otherwise a short random string.
func randomTerm(rng *rand.Rand, text string) string {
	if toks := refTokenize(text); len(toks) > 0 && rng.Intn(3) > 0 {
		tok := toks[rng.Intn(len(toks))].Lower
		if rng.Intn(4) == 0 && len(tok) > 1 {
			// A prefix of a token exercises inside-word rejections.
			cut := 1 + rng.Intn(len(tok)-1)
			if utf8.ValidString(tok[:cut]) {
				return tok[:cut]
			}
		}
		return tok
	}
	for {
		if s := strings.ToLower(randomEdgeString(rng, 3)); s != "" {
			return s
		}
	}
}

func TestTokenizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		s := randomEdgeString(rng, 12)
		got, want := Tokenize(s), refTokenize(s)
		if len(got) != len(want) {
			t.Fatalf("Tokenize(%q) = %d tokens, reference %d", s, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Text != w.Text || g.Lower != w.Lower || g.Index != w.Index {
				t.Fatalf("Tokenize(%q)[%d] = %+v, reference %+v", s, i, g, w)
			}
			if utf8.ValidString(s) && g.Offset != w.Offset {
				t.Fatalf("Tokenize(%q)[%d].Offset = %d, reference %d", s, i, g.Offset, w.Offset)
			}
			if s[g.Offset:g.Offset+len(g.Text)] != g.Text {
				t.Fatalf("Tokenize(%q)[%d] offset %d does not locate %q", s, i, g.Offset, g.Text)
			}
		}
		var each, texts []string
		EachWord(s, func(word string) { each = append(each, word) })
		for _, tok := range got {
			texts = append(texts, tok.Text)
		}
		if !reflect.DeepEqual(each, texts) {
			t.Fatalf("EachWord(%q) = %q, Tokenize texts %q", s, each, texts)
		}
	}
}

func TestContainsWordMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 20000; n++ {
		s := randomEdgeString(rng, 12)
		term := randomTerm(rng, s)
		if got, want := ContainsWord(s, term), refContainsWord(s, term); got != want {
			t.Fatalf("ContainsWord(%q, %q) = %v, reference %v", s, term, got, want)
		}
	}
}

func TestContainsTermMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 20000; n++ {
		s := randomEdgeString(rng, 12)
		term := randomTerm(rng, s)
		if got, want := ContainsTerm(s, term), refContainsTerm(s, term); got != want {
			t.Fatalf("ContainsTerm(%q, %q) = %v, reference %v", s, term, got, want)
		}
	}
}

func TestAppendLowerAndHasLowerPrefixMatchStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 0; n < 20000; n++ {
		s := randomEdgeString(rng, 8)
		if got := string(AppendLower([]byte("x:"), s)); got != "x:"+strings.ToLower(s) {
			t.Fatalf("AppendLower(%q) = %q, want %q", s, got, "x:"+strings.ToLower(s))
		}
		prefix := strings.ToLower(randomEdgeString(rng, 3))
		if rng.Intn(2) == 0 {
			lower := strings.ToLower(s)
			prefix = lower[:rng.Intn(len(lower)+1)]
		}
		if got, want := HasLowerPrefix(s, prefix), strings.HasPrefix(strings.ToLower(s), prefix); got != want {
			t.Fatalf("HasLowerPrefix(%q, %q) = %v, want %v", s, prefix, got, want)
		}
	}
}

// TestContainmentDefinitionsDiffer pins the two containment definitions:
// ContainsTerm matches inside tokens, ContainsWord only whole tokens.
func TestContainmentDefinitionsDiffer(t *testing.T) {
	cases := []struct {
		text, lower string
		term, word  bool
	}{
		{"protein G-Actin binds", "actin", true, false},
		{"protein G-Actin binds", "g-actin", true, true},
		{"\u212Aey gene", "key", true, true},
		{"İ-d", "i", true, false},
		{"İd", "id", true, true},
		{"Straße", "straße", true, true},
		{"JW0014x", "jw0014", false, false},
	}
	for _, c := range cases {
		if got := ContainsTerm(c.text, c.lower); got != c.term {
			t.Errorf("ContainsTerm(%q, %q) = %v, want %v", c.text, c.lower, got, c.term)
		}
		if got := ContainsWord(c.text, c.lower); got != c.word {
			t.Errorf("ContainsWord(%q, %q) = %v, want %v", c.text, c.lower, got, c.word)
		}
	}
}

func TestFoldingAllocatesNothingOnASCII(t *testing.T) {
	text := "From the exp, it seems this Gene is correlated to JW0014 of grpC and G-Actin"
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		EachWord(text, func(word string) { buf = AppendLower(buf[:0], word) })
		if !ContainsWord(text, "grpc") || ContainsWord(text, "actin") {
			t.Fatal("ContainsWord mismatch")
		}
		if !ContainsTerm(text, "actin") || !HasLowerPrefix(text, "from the") {
			t.Fatal("ContainsTerm/HasLowerPrefix mismatch")
		}
	})
	if allocs != 0 {
		t.Fatalf("ASCII folding allocated %.1f times per run, want 0", allocs)
	}
}
