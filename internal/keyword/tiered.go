package keyword

import (
	"context"
	"sync"

	"nebula/internal/relational"
	"nebula/internal/segment"
	"nebula/internal/textutil"
)

// TieredEngine is the disk-backed variant of the symbol-table technique:
// immutable mmap'd segments (owned by a segment.Store) hold the bulk of
// the inverted index, and a small in-heap tail absorbs everything that
// changed since the last flush. Exactness does not depend on segments
// being fresh — every posting, segment or tail, is re-verified against
// the live row at lookup time, and rows mutated since the last flush are
// re-indexed into the tail before any probe. The result is byte-identical
// to a freshly rebuilt SymbolTableEngine (the two share executeSymbolQuery
// and the verification guarantees the same hit set per term).
type TieredEngine struct {
	db    *relational.Database
	store *segment.Store

	mu sync.RWMutex
	// tail maps a term to the postings added since the last flush.
	tail map[string]map[tailKey]struct{}
	// dirty lists rows mutated since their last (re-)indexing; they are
	// absorbed into the tail before the next probe or flush.
	dirty map[relational.TupleID]struct{}
	// pendingAll forces a full re-index of the database into the tail:
	// set on a fresh/mismatched store before the first flush covers the
	// current contents.
	pendingAll bool

	absorbedRows int
	tailPostings int
}

type tailKey struct {
	id     relational.TupleID
	column string
}

// NewTieredEngine binds the tiered index to db and store. When the store
// carries no usable segments for the current snapshot generation (fresh
// directory, or a boundary mismatch the caller resolved with Reset), pass
// fullPending=true so the whole database is re-indexed into the tail and
// the next flush rebuilds the segment set.
func NewTieredEngine(db *relational.Database, store *segment.Store, fullPending bool) *TieredEngine {
	return &TieredEngine{
		db:         db,
		store:      store,
		tail:       map[string]map[tailKey]struct{}{},
		dirty:      map[relational.TupleID]struct{}{},
		pendingAll: fullPending,
	}
}

// Database returns the bound database.
func (t *TieredEngine) Database() *relational.Database { return t.db }

// Store returns the underlying segment store.
func (t *TieredEngine) Store() *segment.Store { return t.store }

// MarkDirty records that the row changed (insert, delete, or update) and
// must be re-indexed into the tail before the next probe. Called from the
// engine's row-mutation hook, synchronously inside committed mutations —
// including WAL replay, which is how replayed-but-not-flushed rows regain
// index coverage after a restart.
func (t *TieredEngine) MarkDirty(id relational.TupleID) {
	t.mu.Lock()
	t.dirty[id] = struct{}{}
	t.mu.Unlock()
}

// MarkAllPending schedules a full re-index of the database into the tail.
func (t *TieredEngine) MarkAllPending() {
	t.mu.Lock()
	t.pendingAll = true
	t.mu.Unlock()
}

// Absorb re-indexes every pending dirty row into the tail. The engine
// calls it from RefreshSearchIndex (where the heap engine re-gobs the
// whole index, the tiered engine touches only what changed) and before
// flushes; Execute also self-absorbs lazily.
func (t *TieredEngine) Absorb() {
	t.mu.Lock()
	t.absorbLocked()
	t.mu.Unlock()
}

func (t *TieredEngine) absorbLocked() {
	if t.pendingAll {
		t.tail = map[string]map[tailKey]struct{}{}
		t.dirty = map[relational.TupleID]struct{}{}
		t.tailPostings = 0
		for _, name := range t.db.TableNames() {
			tb := t.db.MustTable(name)
			for _, row := range tb.Rows() {
				t.indexRowLocked(row)
				t.absorbedRows++
			}
		}
		t.pendingAll = false
		return
	}
	if len(t.dirty) == 0 {
		return
	}
	for id := range t.dirty {
		t.removeRowLocked(id)
		if row, ok := t.db.Lookup(id); ok {
			t.indexRowLocked(row)
		}
		t.absorbedRows++
	}
	t.dirty = map[relational.TupleID]struct{}{}
}

// indexRowLocked adds the row's current terms to the tail — the same
// extraction the heap engine's Rebuild performs: full-text columns yield
// their tokens (a posting set absorbs repeats), other string columns their
// whole lower-cased value.
func (t *TieredEngine) indexRowLocked(row *relational.Row) {
	tb, ok := t.db.Table(row.ID.Table)
	if !ok {
		return
	}
	var arr [64]byte
	buf := arr[:0]
	for i, col := range tb.Schema().Columns {
		if col.Type != relational.TypeString {
			continue
		}
		k := tailKey{id: row.ID, column: col.Name}
		v := row.Values[i].Str()
		if col.FullText {
			textutil.EachWord(v, func(word string) {
				buf = textutil.AppendLower(buf[:0], word)
				t.addTailLocked(buf, k)
			})
			continue
		}
		buf = textutil.AppendLower(buf[:0], v)
		t.addTailLocked(buf, k)
	}
}

// addTailLocked adds the posting k under the lower-cased term. A new
// term's key is a fresh copy, never a substring pinning the row text.
func (t *TieredEngine) addTailLocked(term []byte, k tailKey) {
	set := t.tail[string(term)]
	if set == nil {
		set = map[tailKey]struct{}{}
		t.tail[string(term)] = set
	}
	if _, dup := set[k]; !dup {
		set[k] = struct{}{}
		t.tailPostings++
	}
}

// removeRowLocked drops every tail posting for the row. Linear in the
// tail size; the tail is small by design (everything since last flush).
func (t *TieredEngine) removeRowLocked(id relational.TupleID) {
	for term, set := range t.tail {
		for k := range set {
			if k.id == id {
				delete(set, k)
				t.tailPostings--
			}
		}
		if len(set) == 0 {
			delete(t.tail, term)
		}
	}
}

// verify re-checks that the term still occurs in the row's column. This
// is what lets immutable segments serve a mutable database exactly: a
// stale posting (row deleted, value changed) simply fails verification.
func (t *TieredEngine) verify(k tailKey, term string) (*relational.Row, bool) {
	tb, ok := t.db.Table(k.id.Table)
	if !ok {
		return nil, false
	}
	row, ok := tb.GetByKey(k.id.Key)
	if !ok {
		return nil, false
	}
	for i, col := range tb.Schema().Columns {
		if col.Type != relational.TypeString || col.Name != k.column {
			continue
		}
		v := row.Values[i].Str()
		if col.FullText {
			if textutil.ContainsWord(v, term) {
				return row, true
			}
			return nil, false
		}
		if textutil.EqualLower(v, term) {
			return row, true
		}
		return nil, false
	}
	return nil, false
}

// lookupLocked merges segment and tail postings for term, deduplicates by
// (table, key, column), and verifies each survivor against the live row.
// Caller holds t.mu (read suffices: nothing here mutates the tail).
func (t *TieredEngine) lookupLocked(term string) []symbolHit {
	posts := t.store.Lookup(term, nil)
	var hits []symbolHit
	seen := make(map[tailKey]struct{}, len(posts)+len(t.tail[term]))
	for _, p := range posts {
		k := tailKey{id: relational.TupleID{Table: p.Table, Key: p.Key}, column: p.Column}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if row, ok := t.verify(k, term); ok {
			hits = append(hits, symbolHit{row: row, column: k.column})
		}
	}
	for k := range t.tail[term] {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if row, ok := t.verify(k, term); ok {
			hits = append(hits, symbolHit{row: row, column: k.column})
		}
	}
	return hits
}

// Execute implements Searcher.
func (t *TieredEngine) Execute(q Query) ([]Result, ExecStats, error) {
	t.ensureAbsorbed()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return executeSymbolQuery(q, t.lookupLocked)
}

// ensureAbsorbed takes the write lock only when there is pending work.
func (t *TieredEngine) ensureAbsorbed() {
	t.mu.RLock()
	pending := t.pendingAll || len(t.dirty) > 0
	t.mu.RUnlock()
	if pending {
		t.Absorb()
	}
}

// ExecuteBatch implements Searcher.
func (t *TieredEngine) ExecuteBatch(qs []Query, shared bool) (map[string][]Result, ExecStats, error) {
	return t.ExecuteBatchContext(context.Background(), qs, shared, Limits{})
}

// ExecuteBatchContext implements Searcher with the same governance
// behavior as the heap engine.
func (t *TieredEngine) ExecuteBatchContext(ctx context.Context, qs []Query, shared bool, lim Limits) (map[string][]Result, ExecStats, error) {
	return executeSymbolBatch(ctx, qs, shared, lim, t.Execute)
}

// PrepareFlush absorbs pending rows and snapshots the whole tail as a
// flush payload. The caller writes it to a segment (outside the engine
// lock) and, on success, calls CommitFlush with the same payload. Between
// the two calls the tail keeps serving — new mutations only mark rows
// dirty, so the snapshot stays a consistent lower bound of the tail.
func (t *TieredEngine) PrepareFlush() map[string][]segment.Posting {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.absorbLocked()
	if len(t.tail) == 0 {
		return nil
	}
	out := make(map[string][]segment.Posting, len(t.tail))
	for term, set := range t.tail {
		ps := make([]segment.Posting, 0, len(set))
		for k := range set {
			ps = append(ps, segment.Posting{Table: k.id.Table, Column: k.column, Key: k.id.Key})
		}
		out[term] = ps
	}
	return out
}

// CommitFlush removes the flushed postings from the tail: they are now
// served from the new segment. A posting re-added for a row dirtied
// during the flush I/O has the same identity as its flushed twin, so
// dropping it here is safe — the segment copy verifies against the live
// row exactly the same way.
func (t *TieredEngine) CommitFlush(flushed map[string][]segment.Posting) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for term, ps := range flushed {
		set := t.tail[term]
		if set == nil {
			continue
		}
		for _, p := range ps {
			k := tailKey{id: relational.TupleID{Table: p.Table, Key: p.Key}, column: p.Column}
			if _, ok := set[k]; ok {
				delete(set, k)
				t.tailPostings--
			}
		}
		if len(set) == 0 {
			delete(t.tail, term)
		}
	}
}

// TailStats reports the tail's current size: distinct terms, postings,
// rows awaiting absorption, and whether a full re-index is pending.
func (t *TieredEngine) TailStats() (terms, postings, dirtyRows int, fullPending bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.tail), t.tailPostings, len(t.dirty), t.pendingAll
}

var _ Searcher = (*TieredEngine)(nil)
