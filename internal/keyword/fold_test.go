package keyword

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nebula/internal/relational"
	"nebula/internal/segment"
	"nebula/internal/textutil"
)

// foldAlphabet mixes ASCII with runes whose case folding is not a plain
// ASCII shift ("İ", "ß", "ǅ", U+212A Kelvin, a CJK letter), a literal
// U+FFFD, connectors and an invalid byte.
var foldAlphabet = []string{
	"a", "k", "i", "s", "A", "K", "I", "S", "0", " ", "-", ".",
	"İ", "ß", "ǅ", "\u212A", "東", "\uFFFD", "\xff",
}

func randomFoldText(rng *rand.Rand, maxParts int) string {
	var b strings.Builder
	for n := rng.Intn(maxParts + 1); n > 0; n-- {
		b.WriteString(foldAlphabet[rng.Intn(len(foldAlphabet))])
	}
	return b.String()
}

// foldDB holds one table with a full-text column and a plain string
// column drawing on foldAlphabet.
func foldDB(t *testing.T, rows int) *relational.Database {
	t.Helper()
	db := relational.NewDatabase()
	tb, err := db.CreateTable(&relational.Schema{
		Name: "Doc",
		Columns: []relational.Column{
			{Name: "ID", Type: relational.TypeString},
			{Name: "Note", Type: relational.TypeString, FullText: true},
			{Name: "Label", Type: relational.TypeString},
			{Name: "Num", Type: relational.TypeInt},
		},
		PrimaryKey: "ID",
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < rows; i++ {
		if _, err := tb.Insert([]relational.Value{
			relational.String(fmt.Sprintf("D%04d", i)),
			relational.String(randomFoldText(rng, 12)),
			relational.String(randomFoldText(rng, 3)),
			relational.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// refTerms is the term extraction both symbol-table techniques performed
// before EachWord: a full-text value's distinct Tokenize Lower forms, in
// order, or a plain string value lower-cased whole.
func refTerms(v string, fullText bool) []string {
	if !fullText {
		return []string{strings.ToLower(v)}
	}
	var out []string
	seen := map[string]bool{}
	for _, tok := range textutil.Tokenize(v) {
		if !seen[tok.Lower] {
			seen[tok.Lower] = true
			out = append(out, tok.Lower)
		}
	}
	return out
}

// refVerify is TieredEngine.verify's containment before ContainsWord.
func refVerify(v, term string, fullText bool) bool {
	if !fullText {
		return strings.ToLower(v) == term
	}
	for _, tok := range textutil.Tokenize(v) {
		if tok.Lower == term {
			return true
		}
	}
	return false
}

func TestSymbolTableMatchesReferenceExtraction(t *testing.T) {
	db := foldDB(t, 300)
	want := map[string][]symbolHit{}
	for _, name := range db.TableNames() {
		tb := db.MustTable(name)
		for _, row := range tb.Rows() {
			for i, col := range tb.Schema().Columns {
				if col.Type != relational.TypeString {
					continue
				}
				for _, term := range refTerms(row.Values[i].Str(), col.FullText) {
					want[term] = append(want[term], symbolHit{row: row, column: col.Name})
				}
			}
		}
	}
	e := NewSymbolTableEngine(db)
	if len(e.symbols) != len(want) {
		t.Fatalf("symbol table holds %d terms, reference %d", len(e.symbols), len(want))
	}
	for term, hits := range want {
		got := e.symbols[term]
		if got == nil || !reflect.DeepEqual(*got, hits) {
			t.Fatalf("symbols[%q] differ from the reference", term)
		}
	}

	te := NewTieredEngine(db, emptyStore(t), true)
	te.Absorb()
	if len(te.tail) != len(want) {
		t.Fatalf("tiered tail holds %d terms, reference %d", len(te.tail), len(want))
	}
	for term, hits := range want {
		set := te.tail[term]
		if len(set) != len(hits) {
			t.Fatalf("tail[%q] holds %d postings, reference %d", term, len(set), len(hits))
		}
		for _, h := range hits {
			if _, ok := set[tailKey{id: h.row.ID, column: h.column}]; !ok {
				t.Fatalf("tail[%q] misses %v/%s", term, h.row.ID, h.column)
			}
		}
	}
}

func emptyStore(t *testing.T) *segment.Store {
	t.Helper()
	store, err := segment.Open(t.TempDir(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

func TestTieredVerifyMatchesReference(t *testing.T) {
	db := foldDB(t, 200)
	te := NewTieredEngine(db, emptyStore(t), true)
	tb := db.MustTable("Doc")
	rng := rand.New(rand.NewSource(22))
	for n := 0; n < 4000; n++ {
		row := tb.Rows()[rng.Intn(tb.Len())]
		ci := 1 + rng.Intn(2)
		col := tb.Schema().Columns[ci]
		v := row.Values[ci].Str()
		term := strings.ToLower(randomFoldText(rng, 2))
		if terms := refTerms(v, col.FullText); len(terms) > 0 && rng.Intn(2) == 0 {
			term = terms[rng.Intn(len(terms))]
		}
		_, got := te.verify(tailKey{id: row.ID, column: col.Name}, term)
		if want := refVerify(v, term, col.FullText); got != want {
			t.Fatalf("verify(%q in %s %q) = %v, reference %v", term, col.Name, v, got, want)
		}
	}
}

// TestTieredVerifyAllocatesNothingPerPosting pins the segment-verify hot
// path: re-checking a posting against its live row (table and row lookup,
// case-insensitive token match) must not allocate on ASCII data.
func TestTieredVerifyAllocatesNothingPerPosting(t *testing.T) {
	_, te, _, _ := tieredFixture(t)
	te.Absorb()
	type posting struct {
		k    tailKey
		term string
	}
	var posts []posting
	for term, set := range te.tail {
		for k := range set {
			posts = append(posts, posting{k, term})
		}
	}
	if len(posts) < 10 {
		t.Fatalf("fixture tail holds only %d postings", len(posts))
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, p := range posts {
			if _, ok := te.verify(p.k, p.term); !ok {
				t.Fatalf("posting %v of %q failed verification", p.k, p.term)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("verify allocated %.1f times over %d postings, want 0", allocs, len(posts))
	}
}
