package textutil

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	got := Words("From the exp, it seems this gene is correlated to JW0014 of grpC")
	want := []string{"from", "the", "exp", "it", "seems", "this", "gene",
		"is", "correlated", "to", "jw0014", "of", "grpc"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words() = %v, want %v", got, want)
	}
}

func TestTokenizeKeepsConnectedIdentifiers(t *testing.T) {
	cases := map[string][]string{
		"protein G-Actin binds":  {"protein", "g-actin", "binds"},
		"accession P12345.2 ok":  {"accession", "p12345.2", "ok"},
		"snake_case_name":        {"snake_case_name"},
		"trailing dash- here":    {"trailing", "dash", "here"},
		"dots... and ellipsis":   {"dots", "and", "ellipsis"},
		"comma,separated,words":  {"comma", "separated", "words"},
		"(parenthesized JW0001)": {"parenthesized", "jw0001"},
	}
	for in, want := range cases {
		if got := Words(in); !reflect.DeepEqual(got, want) {
			t.Errorf("Words(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize(\"\") = %v, want empty", got)
	}
	if got := Tokenize("  ,.;  "); len(got) != 0 {
		t.Fatalf("Tokenize(punct) = %v, want empty", got)
	}
}

func TestTokenizeIndicesAndOffsets(t *testing.T) {
	toks := Tokenize("gene JW0014 ok")
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3", len(toks))
	}
	for i, tok := range toks {
		if tok.Index != i {
			t.Errorf("token %d has Index %d", i, tok.Index)
		}
	}
	if toks[1].Offset != 5 {
		t.Errorf("JW0014 offset = %d, want 5", toks[1].Offset)
	}
	if toks[1].Text != "JW0014" || toks[1].Lower != "jw0014" {
		t.Errorf("token = %+v", toks[1])
	}
}

func TestTokenizeUnicode(t *testing.T) {
	toks := Tokenize("gène número JW0014")
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[2].Text != "JW0014" {
		t.Errorf("last token = %q", toks[2].Text)
	}
}

// Property: offsets always point at the token's text within the input.
// quick generates only valid UTF-8 strings, so the property also runs over
// raw byte slices, which reach invalid encodings.
func TestTokenizeOffsetsProperty(t *testing.T) {
	located := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok.Offset < 0 || tok.Offset+len(tok.Text) > len(s) {
				return false
			}
			if s[tok.Offset:tok.Offset+len(tok.Text)] != tok.Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(located, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	fromBytes := func(b []byte) bool { return located(string(b)) }
	if err := quick.Check(fromBytes, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Regression: an invalid byte once advanced offsets by len("\uFFFD") = 3,
// so every later token pointed past its text and slicing with it panicked.
func TestTokenizeOffsetsAfterInvalidUTF8(t *testing.T) {
	s := "a\xffb JW0014"
	toks := Tokenize(s)
	want := []Token{
		{Text: "a", Lower: "a", Index: 0, Offset: 0},
		{Text: "b", Lower: "b", Index: 1, Offset: 2},
		{Text: "JW0014", Lower: "jw0014", Index: 2, Offset: 4},
	}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("Tokenize(%q) = %+v, want %+v", s, toks, want)
	}
	for _, tok := range toks {
		if got := s[tok.Offset : tok.Offset+len(tok.Text)]; got != tok.Text {
			t.Errorf("offset %d locates %q, want %q", tok.Offset, got, tok.Text)
		}
	}
}

// Property: tokens contain no whitespace and are non-empty.
func TestTokenizeNoWhitespaceProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok.Text == "" || strings.ContainsAny(tok.Text, " \t\n") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "and", "is", "of"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false", w)
		}
	}
	for _, w := range []string{"gene", "jw0014", "protein", ""} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true", w)
		}
	}
}
