package keyword

import (
	"context"
	"sort"
	"strings"

	"nebula/internal/relational"
	"nebula/internal/textutil"
)

// SymbolTableEngine is a keyword-search technique in the style of
// DBXplorer [5] and similar systems: a pre-processing phase builds a
// symbol table mapping every value token in the database to its
// occurrences (table, column, row); queries are answered purely from that
// index. Compared with the metadata approach it needs no ConceptRefs or
// patterns — but it pays an up-front indexing pass over the whole
// database, goes stale as data changes (call Rebuild), and cannot exploit
// keyword role hints beyond filtering to value keywords.
type SymbolTableEngine struct {
	db *relational.Database
	// symbols maps a lower-cased token to the rows containing it. Hits
	// are held by pointer, so appending to a known term is a lookup.
	symbols map[string]*[]symbolHit
	// indexedRows counts rows processed by the pre-processing phase.
	indexedRows int
}

type symbolHit struct {
	row    *relational.Row
	column string
}

// NewSymbolTableEngine runs the pre-processing phase over db and returns
// the ready engine.
func NewSymbolTableEngine(db *relational.Database) *SymbolTableEngine {
	e := &SymbolTableEngine{db: db}
	e.Rebuild()
	return e
}

// Rebuild re-runs the pre-processing phase (required after data changes —
// the documented weakness of index-first techniques).
func (e *SymbolTableEngine) Rebuild() {
	e.symbols = make(map[string]*[]symbolHit)
	e.indexedRows = 0
	var arr [64]byte
	buf := arr[:0]
	for _, name := range e.db.TableNames() {
		t := e.db.MustTable(name)
		schema := t.Schema()
		for _, row := range t.Rows() {
			e.indexedRows++
			for i, col := range schema.Columns {
				if col.Type != relational.TypeString {
					continue
				}
				h := symbolHit{row: row, column: col.Name}
				v := row.Values[i].Str()
				if col.FullText {
					textutil.EachWord(v, func(word string) {
						buf = textutil.AppendLower(buf[:0], word)
						e.addSymbol(buf, h)
					})
					continue
				}
				buf = textutil.AppendLower(buf[:0], v)
				e.addSymbol(buf, h)
			}
		}
	}
}

// addSymbol appends h to the lower-cased term's hits. A full-text value
// is indexed in one pass, so a repeated token finds h already last and is
// skipped; a new term's key is a fresh copy, never a substring pinning the
// row text.
func (e *SymbolTableEngine) addSymbol(term []byte, h symbolHit) {
	hs := e.symbols[string(term)]
	if hs == nil {
		hs = new([]symbolHit)
		e.symbols[string(term)] = hs
	} else if n := len(*hs); n > 0 && (*hs)[n-1] == h {
		return
	}
	*hs = append(*hs, h)
}

// IndexedRows reports how many rows the pre-processing pass covered.
func (e *SymbolTableEngine) IndexedRows() int { return e.indexedRows }

// Symbols reports the number of distinct indexed tokens.
func (e *SymbolTableEngine) Symbols() int { return len(e.symbols) }

// Database returns the bound database.
func (e *SymbolTableEngine) Database() *relational.Database { return e.db }

// Execute answers one keyword query from the symbol table. Only value
// keywords probe the index (concept keywords carry no value to look up);
// a tuple's confidence is the weight-average of the value keywords it
// matches. When a value keyword carries a column hint, hits on other
// columns are discounted rather than dropped — the index has no schema
// semantics to enforce them with.
func (e *SymbolTableEngine) Execute(q Query) ([]Result, ExecStats, error) {
	return executeSymbolQuery(q, func(term string) []symbolHit {
		if hs := e.symbols[term]; hs != nil {
			return *hs
		}
		return nil
	})
}

// executeSymbolQuery answers one keyword query given a term-lookup
// function. It is shared between the heap-resident SymbolTableEngine and
// the disk-backed TieredEngine: the scoring is fully order-independent
// (per-row max credit folded through maps, results sorted at the end), so
// any lookup that yields the same SET of (row, column) hits per term
// produces byte-identical results — the property the tiered store's
// identity gate rests on.
func executeSymbolQuery(q Query, lookup func(term string) []symbolHit) ([]Result, ExecStats, error) {
	var stats ExecStats
	stats.StructuredQueries = 1 // one index probe set

	type agg struct {
		weight float64
		total  float64
	}
	values := 0
	perRow := make(map[relational.TupleID]*agg)
	rows := make(map[relational.TupleID]*relational.Row)
	for _, k := range q.Keywords {
		if k.Role != RoleValue {
			continue
		}
		values++
		w := k.Weight
		if w <= 0 {
			w = 0.5
		}
		hits := lookup(strings.ToLower(k.Text))
		stats.TuplesScanned += len(hits)
		for _, h := range hits {
			credit := w
			if k.TargetColumn != "" && !strings.EqualFold(k.TargetColumn, h.column) {
				credit = w / 2
			}
			a, ok := perRow[h.row.ID]
			if !ok {
				a = &agg{}
				perRow[h.row.ID] = a
				rows[h.row.ID] = h.row
			}
			if credit > a.weight {
				// A row may match the same keyword in several columns;
				// count the best occurrence once per keyword. The per-
				// keyword accumulation happens in `total` below.
				a.weight = credit
			}
		}
		// Fold this keyword's contribution into the running totals.
		for _, a := range perRow {
			a.total += a.weight
			a.weight = 0
		}
	}
	if values == 0 {
		return nil, stats, nil
	}
	out := make([]Result, 0, len(perRow))
	for id, a := range perRow {
		conf := a.total / float64(values)
		if conf > 1 {
			conf = 1
		}
		out = append(out, Result{Tuple: rows[id], Confidence: conf, Query: q.ID})
	}
	sortResults(out)
	stats.TuplesReturned = len(out)
	return out, stats, nil
}

// ExecuteBatch answers a batch. The symbol table has no scan work to
// share; with shared=true identical queries (by structural identity) are
// answered once.
func (e *SymbolTableEngine) ExecuteBatch(qs []Query, shared bool) (map[string][]Result, ExecStats, error) {
	return e.ExecuteBatchContext(context.Background(), qs, shared, Limits{})
}

// ExecuteBatchContext is ExecuteBatch under governance: index probes are
// cheap, so ctx and the scan budget (counting index hits examined) are
// checked between queries. Partial results survive cancellation.
func (e *SymbolTableEngine) ExecuteBatchContext(ctx context.Context, qs []Query, shared bool, lim Limits) (map[string][]Result, ExecStats, error) {
	return executeSymbolBatch(ctx, qs, shared, lim, e.Execute)
}

// executeSymbolBatch is the batch loop shared by the symbol-table
// techniques: per-query governance checks, optional identity sharing, and
// stat accumulation around a single-query exec function.
func executeSymbolBatch(ctx context.Context, qs []Query, shared bool, lim Limits, exec func(Query) ([]Result, ExecStats, error)) (map[string][]Result, ExecStats, error) {
	var stats ExecStats
	gov := governed(ctx, lim)
	results := make(map[string][]Result, len(qs))
	cache := make(map[string][]Result)
	for _, q := range qs {
		if gov {
			if err := ctx.Err(); err != nil {
				return results, stats, err
			}
			if !lim.Unlimited() && stats.TuplesScanned >= lim.MaxScannedRows {
				stats.Degraded = append(stats.Degraded, degradedScanBudget(stats.TuplesScanned, lim.MaxScannedRows))
				return results, stats, nil
			}
		}
		key := ""
		if shared {
			key = queryIdentity(q)
			if rs, ok := cache[key]; ok {
				stats.SharedQueries++
				results[q.ID] = relabel(rs, q.ID)
				continue
			}
		}
		rs, st, err := exec(q)
		if err != nil {
			return nil, stats, err
		}
		stats.Add(st)
		results[q.ID] = rs
		if shared {
			cache[key] = rs
		}
	}
	return results, stats, nil
}

func queryIdentity(q Query) string {
	parts := make([]string, 0, len(q.Keywords))
	for _, k := range q.Keywords {
		if k.Role != RoleValue {
			continue
		}
		parts = append(parts, strings.ToLower(k.Text)+"\x00"+strings.ToLower(k.TargetColumn))
	}
	sortStrings(parts)
	return strings.Join(parts, "\x01")
}

func relabel(rs []Result, queryID string) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].Query = queryID
	}
	return out
}

// sortResults orders deterministically: descending confidence, then tuple
// identity.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Confidence != rs[j].Confidence {
			return rs[i].Confidence > rs[j].Confidence
		}
		return tupleLess(rs[i].Tuple.ID, rs[j].Tuple.ID)
	})
}

func tupleLess(a, b relational.TupleID) bool {
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	return a.Key < b.Key
}

func sortStrings(s []string) { sort.Strings(s) }
