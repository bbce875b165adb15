package textutil

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzTokenize checks Tokenize against its invariants and the rune-slice
// reference on arbitrary bytes: every offset locates its token's text,
// tokens are non-empty and carry their strings.ToLower form, Text/Lower
// agree with the reference (and offsets too on valid UTF-8), and
// ContainsWord finds every token's Lower.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"",
		"From the exp, it seems this gene is correlated to JW0014 of grpC",
		"protein G-Actin binds P12345.2 snake_case_name dash- end.",
		"a\xffb JW0014",
		"İd Straße ǅemal \u212Aelvin 東京 \uFFFD x\u0307",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		ref := refTokenize(s)
		if len(toks) != len(ref) {
			t.Fatalf("Tokenize(%q) = %d tokens, reference %d", s, len(toks), len(ref))
		}
		for i, tok := range toks {
			if tok.Text == "" || tok.Index != i || tok.Lower != strings.ToLower(tok.Text) {
				t.Fatalf("Tokenize(%q)[%d] = %+v", s, i, tok)
			}
			if tok.Offset < 0 || tok.Offset+len(tok.Text) > len(s) || s[tok.Offset:tok.Offset+len(tok.Text)] != tok.Text {
				t.Fatalf("Tokenize(%q)[%d] offset %d does not locate %q", s, i, tok.Offset, tok.Text)
			}
			if tok.Text != ref[i].Text || tok.Lower != ref[i].Lower {
				t.Fatalf("Tokenize(%q)[%d] = %+v, reference %+v", s, i, tok, ref[i])
			}
			if utf8.ValidString(s) && tok.Offset != ref[i].Offset {
				t.Fatalf("Tokenize(%q)[%d].Offset = %d, reference %d", s, i, tok.Offset, ref[i].Offset)
			}
			if !ContainsWord(s, tok.Lower) {
				t.Fatalf("ContainsWord(%q, %q) = false for a token of the text", s, tok.Lower)
			}
		}
	})
}
