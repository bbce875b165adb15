package relational

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nebula/internal/textutil"
)

// refKey is Value.Key before AppendKey: concatenation over strings.ToLower.
func refKey(v Value) string {
	switch v.kind {
	case TypeString:
		return "s:" + strings.ToLower(v.s)
	case TypeInt:
		return "i:" + strconv.FormatInt(v.i, 10)
	default:
		return "f:" + strconv.FormatFloat(v.f, 'g', -1, 64)
	}
}

// refContainsToken is the lower-casing containment test predicates used
// before textutil.ContainsTerm.
func refContainsToken(text, lowerTok string) bool {
	lt := strings.ToLower(text)
	idx := 0
	for {
		i := strings.Index(lt[idx:], lowerTok)
		if i < 0 {
			return false
		}
		start := idx + i
		end := start + len(lowerTok)
		isWord := func(b byte) bool { return b >= 'a' && b <= 'z' || b >= '0' && b <= '9' || b >= 'A' && b <= 'Z' }
		if (start == 0 || !isWord(lt[start-1])) && (end == len(lt) || !isWord(lt[end])) {
			return true
		}
		idx = start + 1
	}
}

// refMatches is Predicate.Matches before binding: a by-name column lookup
// and a case fold of the operand (and, for PREFIX, of the cell) per row.
func refMatches(p Predicate, r *Row) bool {
	v, ok := r.Get(p.Column)
	if !ok {
		return false
	}
	switch p.Op {
	case OpEq:
		return v.EqualFold(p.Operand)
	case OpContainsToken:
		return refContainsToken(v.Str(), strings.ToLower(p.Operand.Str()))
	case OpPrefix:
		return strings.HasPrefix(strings.ToLower(v.Str()), strings.ToLower(p.Operand.Str()))
	default:
		return false
	}
}

// foldAlphabet mixes ASCII with runes whose case folding is not a plain
// ASCII shift ("İ", "ß", "ǅ", U+212A Kelvin, a CJK letter), a literal
// U+FFFD, connectors and an invalid byte.
var foldAlphabet = []string{
	"a", "k", "i", "s", "A", "K", "I", "S", "0", "7", " ", "-", "_", ".",
	"İ", "ß", "ǅ", "\u212A", "東", "\uFFFD", "é", "\xff",
}

func randomFoldText(rng *rand.Rand, maxParts int) string {
	var b strings.Builder
	for n := rng.Intn(maxParts + 1); n > 0; n-- {
		b.WriteString(foldAlphabet[rng.Intn(len(foldAlphabet))])
	}
	return b.String()
}

func TestAppendKeyMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := []Value{
		String(""), String(strings.Repeat("LongMixedCase", 10)), Int(0), Int(-42), Int(math.MinInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(2.5), Float(1e300), Float(math.Inf(-1)), Float(math.NaN()),
	}
	for n := 0; n < 5000; n++ {
		values = append(values, String(randomFoldText(rng, 10)), Int(rng.Int63()-rng.Int63()), Float(rng.NormFloat64()*1e6))
	}
	for _, v := range values {
		want := refKey(v)
		if got := v.Key(); got != want {
			t.Fatalf("Key(%#v) = %q, reference %q", v, got, want)
		}
		if got := string(v.AppendKey([]byte("pre"))); got != "pre"+want {
			t.Fatalf("AppendKey(%#v) = %q, want %q", v, got, "pre"+want)
		}
	}
}

// foldDB holds one table whose text cells draw on foldAlphabet; Note is
// full-text indexed, Label hash-indexed, Text and Num unindexed.
func foldDB(t testing.TB, rows int, seed int64) *Database {
	t.Helper()
	db := NewDatabase()
	tb, err := db.CreateTable(&Schema{
		Name: "Doc",
		Columns: []Column{
			{Name: "ID", Type: TypeString},
			{Name: "Text", Type: TypeString},
			{Name: "Note", Type: TypeString, FullText: true},
			{Name: "Label", Type: TypeString, Indexed: true},
			{Name: "Num", Type: TypeInt},
		},
		PrimaryKey: "ID",
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		if _, err := tb.Insert([]Value{
			String(fmt.Sprintf("D%04d", i)),
			String(randomFoldText(rng, 8)),
			String(randomFoldText(rng, 12)),
			String(randomFoldText(rng, 2)),
			Int(int64(rng.Intn(5))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func randomPredicate(rng *rand.Rand) Predicate {
	cols := []string{"Text", "text", "NOTE", "Note", "Label", "Num", "ID"}
	p := Predicate{Column: cols[rng.Intn(len(cols))], Op: Op(rng.Intn(4))}
	if p.Column == "Num" && rng.Intn(2) == 0 {
		p.Operand = Int(int64(rng.Intn(5)))
	} else {
		p.Operand = String(randomFoldText(rng, 3))
	}
	return p
}

func TestBoundPredicateMatchesReference(t *testing.T) {
	db := foldDB(t, 300, 6)
	tb := db.MustTable("doc")
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 400; n++ {
		p := randomPredicate(rng)
		if p.Op == OpContainsToken && p.Operand.Str() == "" {
			continue // the reference loops past the text's end on an empty term
		}
		b, ok := p.bind(tb.Schema())
		if !ok {
			t.Fatalf("bind(%v) failed", p)
		}
		for _, r := range tb.Rows() {
			want := refMatches(p, r)
			if got := b.matches(r); got != want {
				t.Fatalf("bound %v on %v = %v, reference %v", p, r, got, want)
			}
			if got := p.Matches(r); got != want {
				t.Fatalf("Matches %v on %v = %v, reference %v", p, r, got, want)
			}
		}
	}
}

// TestSelectMatchesReferenceScan checks full-scan Select and SelectMulti
// against a reference filter over the rows in insertion order. Predicates
// an index could drive are left out: index access paths match by Key or
// by token, not by the predicate's own semantics. SelectMulti answers a
// single-equality scan with a Key probe, so its reference does too.
func TestSelectMatchesReferenceScan(t *testing.T) {
	db := foldDB(t, 300, 8)
	tb := db.MustTable("Doc")
	rng := rand.New(rand.NewSource(9))
	indexable := func(p Predicate) bool {
		col := strings.ToLower(p.Column)
		return p.Op == OpEq && (col == "label" || col == "id") || p.Op == OpContainsToken && col == "note"
	}
	var qs []Query
	for len(qs) < 150 {
		q := Query{Table: "doc"}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			p := randomPredicate(rng)
			if indexable(p) || p.Op == OpContainsToken && p.Operand.Str() == "" {
				continue
			}
			q.Predicates = append(q.Predicates, p)
		}
		if len(q.Predicates) > 0 {
			qs = append(qs, q)
		}
	}
	multi, _, err := db.SelectMultiUncached(qs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		var want, wantMulti []*Row
		for _, r := range tb.Rows() {
			keep := true
			for _, p := range q.Predicates {
				keep = keep && refMatches(p, r)
			}
			if keep {
				want = append(want, r)
			}
			if p := q.Predicates[0]; len(q.Predicates) == 1 && p.Op == OpEq {
				keep = refKey(r.MustGet(p.Column)) == refKey(p.Operand)
			}
			if keep {
				wantMulti = append(wantMulti, r)
			}
		}
		got, _, err := db.SelectUncached(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(got, want) {
			t.Fatalf("Select(%v) = %d rows, reference %d", q, len(got), len(want))
		}
		if !sameRows(multi[i], wantMulti) {
			t.Fatalf("SelectMulti[%d] (%v) = %d rows, reference %d", i, q, len(multi[i]), len(wantMulti))
		}
	}
}

// sameRows compares row lists, treating nil and empty alike.
func sameRows(a, b []*Row) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// refPostings indexes column ci of every row the way invertedIndex.add
// did before EachWord: Tokenize, skipping a row's repeated Lower forms.
func refPostings(rows []*Row, ci int) map[string][]*Row {
	out := map[string][]*Row{}
	for _, r := range rows {
		seen := map[string]bool{}
		for _, tok := range textutil.Tokenize(r.Values[ci].Str()) {
			if !seen[tok.Lower] {
				seen[tok.Lower] = true
				out[tok.Lower] = append(out[tok.Lower], r)
			}
		}
	}
	return out
}

func checkPostings(t *testing.T, ix *invertedIndex, want map[string][]*Row, ordered bool) {
	t.Helper()
	if len(ix.postings) != len(want) {
		t.Fatalf("index holds %d terms, reference %d", len(ix.postings), len(want))
	}
	for term, rows := range want {
		got := ix.lookup(term)
		if ordered && !reflect.DeepEqual(got, rows) {
			t.Fatalf("postings(%q) = %v, reference %v", term, got, rows)
		}
		if len(got) != len(rows) {
			t.Fatalf("postings(%q) = %d rows, reference %d", term, len(got), len(rows))
		}
		in := map[*Row]bool{}
		for _, r := range got {
			in[r] = true
		}
		for _, r := range rows {
			if !in[r] {
				t.Fatalf("postings(%q) miss %v", term, r.ID)
			}
		}
	}
}

func TestInvertedIndexMatchesTokenizedReference(t *testing.T) {
	db := foldDB(t, 200, 10)
	tb := db.MustTable("Doc")
	ci, _ := tb.Schema().ColumnIndex("Note")
	// Freshly built postings follow row order exactly.
	checkPostings(t, tb.inverted[ci], refPostings(tb.Rows(), ci), true)

	// After updates and deletes (remove + re-add), a re-indexed row moves
	// to the end of its postings, so compare sets.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		r := tb.Rows()[rng.Intn(tb.Len())]
		if err := tb.UpdateByKey(r.ID.Key, "Note", String(randomFoldText(rng, 12))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		tb.DeleteByKey(tb.Rows()[rng.Intn(tb.Len())].ID.Key)
	}
	checkPostings(t, tb.inverted[ci], refPostings(tb.Rows(), ci), false)
}

func TestSharedScanAllocsIndependentOfRows(t *testing.T) {
	queries := []Query{
		{Table: "Gene", Predicates: []Predicate{{Column: "Family", Op: OpEq, Operand: String("f3")}}},
		{Table: "Gene", Predicates: []Predicate{{Column: "family", Op: OpEq, Operand: String("F5")}}},
		{Table: "Protein", Predicates: []Predicate{{Column: "PType", Op: OpEq, Operand: String("t1")}}},
		{Table: "Gene", Predicates: []Predicate{
			{Column: "Family", Op: OpPrefix, Operand: String("f1")},
			{Column: "Length", Op: OpEq, Operand: Int(7)},
		}},
	}
	allocs := func(rows int) float64 {
		db := detMultiDB(t, rows)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := db.SelectMultiUncached(queries, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(4000)
	// Result slices grow logarithmically with the hit count; any per-row
	// allocation would add thousands.
	if large > small+40 || large > 150 {
		t.Fatalf("shared pass allocs: %.0f at 1000 rows, %.0f at 4000 rows; want O(1) per call", small, large)
	}
}

func TestScanSelectAllocsIndependentOfRows(t *testing.T) {
	q := Query{Table: "Gene", Predicates: []Predicate{
		{Column: "Family", Op: OpEq, Operand: String("f3")},
		{Column: "Length", Op: OpEq, Operand: Int(7)},
	}}
	allocs := func(rows int) float64 {
		db := detMultiDB(t, rows)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := db.SelectUncached(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(4000)
	if large > small+10 || large > 30 {
		t.Fatalf("full-scan Select allocs: %.0f at 1000 rows, %.0f at 4000 rows; want O(1) per call", small, large)
	}
}
