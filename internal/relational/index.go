package relational

import (
	"nebula/internal/textutil"
)

// hashIndex maps canonical value keys to the rows holding that value in one
// column. Row order within a bucket follows insertion order, which keeps
// scans deterministic.
type hashIndex struct {
	buckets map[string][]*Row
}

func newHashIndex() *hashIndex {
	return &hashIndex{buckets: make(map[string][]*Row)}
}

func (ix *hashIndex) add(v Value, r *Row) {
	k := v.Key()
	ix.buckets[k] = append(ix.buckets[k], r)
}

func (ix *hashIndex) remove(v Value, r *Row) {
	k := v.Key()
	rows := ix.buckets[k]
	for i, candidate := range rows {
		if candidate == r {
			ix.buckets[k] = append(rows[:i:i], rows[i+1:]...)
			break
		}
	}
	if len(ix.buckets[k]) == 0 {
		delete(ix.buckets, k)
	}
}

func (ix *hashIndex) lookup(v Value) []*Row {
	var buf [64]byte
	return ix.buckets[string(v.AppendKey(buf[:0]))]
}

// distinct returns the number of distinct values in the indexed column —
// used by keyword mapping to estimate selectivity.
func (ix *hashIndex) distinct() int { return len(ix.buckets) }

// invertedIndex maps lower-cased tokens to the rows whose indexed column
// contains that token. It powers keyword containment queries over text
// columns (publication titles/abstracts). Postings are held by pointer, so
// appending to an existing term is a map lookup, which allocates nothing;
// only a new term allocates its key, a copy of the folded token that never
// pins the row text.
type invertedIndex struct {
	postings map[string]*[]*Row
}

func newInvertedIndex() *invertedIndex {
	return &invertedIndex{postings: make(map[string]*[]*Row)}
}

// add appends r to the postings of every distinct token of text, in token
// order. A row is indexed in one call, so a repeated token finds r already
// at the end of its postings.
func (ix *invertedIndex) add(text string, r *Row) {
	var arr [64]byte
	buf := arr[:0]
	textutil.EachWord(text, func(word string) {
		buf = textutil.AppendLower(buf[:0], word)
		ps := ix.postings[string(buf)]
		if ps == nil {
			ps = new([]*Row)
			ix.postings[string(buf)] = ps
		} else if n := len(*ps); n > 0 && (*ps)[n-1] == r {
			return
		}
		*ps = append(*ps, r)
	})
}

// remove drops r from the postings of every token of text. Removal copies
// the remaining postings, since lookups hand the slice to callers; a
// repeated token finds r already gone.
func (ix *invertedIndex) remove(text string, r *Row) {
	var arr [64]byte
	buf := arr[:0]
	textutil.EachWord(text, func(word string) {
		buf = textutil.AppendLower(buf[:0], word)
		ps := ix.postings[string(buf)]
		if ps == nil {
			return
		}
		for i, candidate := range *ps {
			if candidate == r {
				*ps = append((*ps)[:i:i], (*ps)[i+1:]...)
				break
			}
		}
		if len(*ps) == 0 {
			delete(ix.postings, string(buf))
		}
	})
}

func (ix *invertedIndex) lookup(token string) []*Row {
	if ps := ix.postings[token]; ps != nil {
		return *ps
	}
	return nil
}
