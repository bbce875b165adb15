// Package textutil provides the low-level text analysis primitives used by
// Nebula's annotation processing pipeline: tokenization of free-text
// annotations, stop-word filtering, string similarity measures, and token
// shape classification.
//
// Annotations in Nebula are arbitrary free text (comments, abstracts, whole
// articles). Before signature maps can be built (see internal/sigmap), the
// text must be broken into word tokens that retain their position so that
// influence ranges ("α words to the left and to the right", §5.2.2 of the
// paper) are meaningful.
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single word extracted from an annotation, with enough position
// information to reconstruct context windows over the original text.
type Token struct {
	// Text is the token exactly as it appeared (original case preserved;
	// matching code decides case sensitivity per use).
	Text string
	// Lower is Text lower-cased once, since nearly every consumer needs it.
	Lower string
	// Index is the ordinal position of the token in the token stream.
	Index int
	// Offset is the byte offset of the token's first byte in the input.
	Offset int
}

// Tokenize splits an annotation's text into word tokens. A token is a maximal
// run of letters, digits, and the connector characters '_', '-', '.' appearing
// between alphanumerics (so identifiers such as "JW0014", "G-Actin", and
// "P12345.2" survive as single tokens). Pure punctuation is discarded.
// Token.Text is a substring of text, and Offset indexes text's bytes even
// when text holds invalid UTF-8 (an invalid byte is one non-word byte).
func Tokenize(text string) []Token {
	var tokens []Token
	for i := 0; ; {
		start, end := nextWord(text, i)
		if start == end {
			return tokens
		}
		word := text[start:end]
		tokens = append(tokens, Token{
			Text:   word,
			Lower:  strings.ToLower(word),
			Index:  len(tokens),
			Offset: start,
		})
		i = end
	}
}

// EachWord calls fn with the Text of every token Tokenize would produce, in
// order: a substring of text in its original case. It allocates nothing.
func EachWord(text string, fn func(word string)) {
	for i := 0; ; {
		start, end := nextWord(text, i)
		if start == end {
			return
		}
		fn(text[start:end])
		i = end
	}
}

// ContainsWord reports whether some token of text has Lower == lower. ASCII
// words are compared by folding bytes in place; only a word holding
// non-ASCII runes is lower-cased with strings.ToLower, whose folding can
// change its byte length ("İ", U+212A Kelvin). It allocates nothing when
// every word it compares is ASCII.
func ContainsWord(text, lower string) bool {
	for i := 0; ; {
		start, end := nextWord(text, i)
		if start == end {
			return false
		}
		if EqualLower(text[start:end], lower) {
			return true
		}
		i = end
	}
}

// EqualLower reports whether strings.ToLower(s) == lower, folding ASCII s
// in place without allocating.
func EqualLower(s, lower string) bool {
	if isASCII(s) {
		return len(s) == len(lower) && equalLowerASCII(s, lower)
	}
	return strings.ToLower(s) == lower
}

// AppendLower appends strings.ToLower(s) to buf. ASCII text is folded byte
// by byte without allocating; text holding any non-ASCII byte goes through
// strings.ToLower.
func AppendLower(buf []byte, s string) []byte {
	if !isASCII(s) {
		return append(buf, strings.ToLower(s)...)
	}
	for i := 0; i < len(s); i++ {
		buf = append(buf, lowerASCII(s[i]))
	}
	return buf
}

// HasLowerPrefix reports whether strings.ToLower(s) starts with prefix,
// without lower-casing s when the bytes it compares are ASCII (a rune's
// lower-case form depends on that rune alone, so an ASCII head of s folds
// to the same bytes whatever follows it).
func HasLowerPrefix(s, prefix string) bool {
	n := len(prefix)
	if n <= len(s) && isASCII(s[:n]) {
		return equalLowerASCII(s[:n], prefix)
	}
	if n > len(s) && isASCII(s) {
		return false
	}
	return strings.HasPrefix(strings.ToLower(s), prefix)
}

// ContainsTerm reports whether strings.ToLower(text) contains lower at a
// position bounded on both sides by a non-alphanumeric ASCII byte or the
// end of the text. Unlike ContainsWord it matches inside tokens: "G-Actin"
// contains "actin". ASCII text is matched in place; other text is
// lower-cased first, since folding can move the term's byte position.
func ContainsTerm(text, lower string) bool {
	if !isASCII(text) {
		return containsTermIn(strings.ToLower(text), lower, false)
	}
	return containsTermIn(text, lower, true)
}

// containsTermIn scans every start position of t for lower; fold says
// whether t's bytes still need ASCII folding.
func containsTermIn(t, lower string, fold bool) bool {
	n := len(lower)
	for start := 0; start+n <= len(t); start++ {
		if start > 0 && isWordByte(t[start-1]) {
			continue
		}
		end := start + n
		if end < len(t) && isWordByte(t[end]) {
			continue
		}
		if fold && equalLowerASCII(t[start:end], lower) || !fold && t[start:end] == lower {
			return true
		}
	}
	return false
}

// nextWord returns the byte bounds of the first token at or after byte i,
// or start == end == len(text) when none is left. ASCII bytes are
// classified directly; only non-ASCII runes are decoded.
func nextWord(text string, i int) (start, end int) {
	n := len(text)
	for i < n {
		r, size := runeAt(text, i)
		if isWordRune(r) {
			break
		}
		i += size
	}
	if i == n {
		return n, n
	}
	start = i
	for i < n {
		r, size := runeAt(text, i)
		if isWordRune(r) {
			i += size
			continue
		}
		// Connectors stay inside a token only when the next rune
		// continues the word: "G-Actin" is one token, "end-" is not.
		if isConnector(r) && i+1 < n {
			if next, _ := runeAt(text, i+1); isWordRune(next) {
				i++
				continue
			}
		}
		break
	}
	return start, i
}

// runeAt decodes the rune at byte i; an invalid byte decodes as
// utf8.RuneError of width 1.
func runeAt(text string, i int) (rune, int) {
	if b := text[i]; b < utf8.RuneSelf {
		return rune(b), 1
	}
	return utf8.DecodeRuneInString(text[i:])
}

func isWordRune(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9'
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isConnector(r rune) bool {
	return r == '-' || r == '_' || r == '.'
}

func isWordByte(b byte) bool {
	return 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9'
}

func lowerASCII(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + ('a' - 'A')
	}
	return b
}

// equalLowerASCII reports whether the ASCII fold of s equals lower; the
// two must have the same length.
func equalLowerASCII(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		if lowerASCII(s[i]) != lower[i] {
			return false
		}
	}
	return true
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// Words returns just the lower-cased token texts, convenient for tests and
// for consumers that do not need positions.
func Words(text string) []string {
	toks := Tokenize(text)
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Lower
	}
	return out
}

// stopwords is a compact English stop-word list. Annotations are scientific
// prose; filtering these words keeps signature maps small without risking the
// loss of identifiers (identifiers never collide with stop words).
var stopwords = map[string]struct{}{
	"a": {}, "an": {}, "and": {}, "are": {}, "as": {}, "at": {}, "be": {},
	"but": {}, "by": {}, "for": {}, "from": {}, "has": {}, "have": {},
	"he": {}, "her": {}, "his": {}, "if": {}, "in": {}, "into": {}, "is": {},
	"it": {}, "its": {}, "may": {}, "not": {}, "of": {}, "on": {}, "or": {},
	"our": {}, "she": {}, "so": {}, "some": {}, "such": {}, "than": {},
	"that": {}, "the": {}, "their": {}, "them": {}, "then": {}, "there": {},
	"these": {}, "they": {}, "this": {}, "those": {}, "to": {}, "very": {},
	"was": {}, "we": {}, "were": {}, "which": {}, "while": {}, "who": {},
	"will": {}, "with": {}, "would": {}, "you": {}, "your": {}, "also": {},
	"been": {}, "between": {}, "both": {}, "can": {}, "do": {}, "does": {},
	"each": {}, "how": {}, "i": {}, "more": {}, "most": {}, "no": {},
	"other": {}, "out": {}, "over": {}, "same": {}, "seems": {}, "only": {},
	"under": {}, "up": {}, "what": {}, "when": {}, "where": {},
}

// IsStopword reports whether the (already lower-cased) word is an English
// stop word.
func IsStopword(lower string) bool {
	_, ok := stopwords[lower]
	return ok
}
