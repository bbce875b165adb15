package keyword

import (
	"context"
	"strings"

	"nebula/internal/relational"
	"nebula/internal/textutil"
)

// NaiveSearch implements the §4 baseline: the entire annotation body is
// passed as a single keyword query, without any of Nebula's pre-processing.
// Every non-stop-word token is a keyword that may match any column of any
// table, so the search must examine the whole database; any tuple matching
// at least one token qualifies, with confidence proportional to the
// fraction of tokens it matches. This reproduces the baseline's documented
// pathologies: enormous scan cost and an extremely noisy result set.
func (e *Engine) NaiveSearch(text string) ([]Result, ExecStats) {
	rs, stats, _ := e.NaiveSearchContext(context.Background(), text, Limits{})
	return rs, stats
}

// NaiveSearchContext is NaiveSearch under governance. The scan polls ctx
// every scanBatch tuples — the unbounded full-database pass is exactly the
// baseline pathology a deadline must be able to interrupt — and stops when
// the scan budget is spent, recording the truncation in stats.Degraded.
// Partial hits collected before cancellation are returned with ctx's error.
func (e *Engine) NaiveSearchContext(ctx context.Context, text string, lim Limits) ([]Result, ExecStats, error) {
	var stats ExecStats
	gov := governed(ctx, lim)
	tokens := make([]string, 0, 64)
	seen := make(map[string]struct{})
	for _, tok := range textutil.Tokenize(text) {
		if textutil.IsStopword(tok.Lower) {
			continue
		}
		if _, dup := seen[tok.Lower]; dup {
			continue
		}
		seen[tok.Lower] = struct{}{}
		tokens = append(tokens, tok.Lower)
	}
	if len(tokens) == 0 {
		return nil, stats, nil
	}
	stats.StructuredQueries = 1 // one (gigantic) keyword query

	type hit struct {
		row     *relational.Row
		matched int
	}
	var hits []hit
	var scanErr error
	maxMatched := 0
scan:
	for _, tableName := range e.db.TableNames() {
		t := e.db.MustTable(tableName)
		schema := t.Schema()
		for _, row := range t.Rows() {
			if gov && stats.TuplesScanned%scanBatch == 0 {
				if err := ctx.Err(); err != nil {
					scanErr = err
					break scan
				}
				if !lim.Unlimited() && stats.TuplesScanned >= lim.MaxScannedRows {
					stats.Degraded = append(stats.Degraded, degradedScanBudget(stats.TuplesScanned, lim.MaxScannedRows))
					break scan
				}
			}
			stats.TuplesScanned++
			matched := 0
			for _, tok := range tokens {
				if rowMatchesToken(schema, row, tok) {
					matched++
				}
			}
			if matched == 0 {
				continue
			}
			if matched > maxMatched {
				maxMatched = matched
			}
			hits = append(hits, hit{row: row, matched: matched})
		}
	}
	// Confidence model of the black-box search: every produced tuple
	// inherits at least half of the (single, giant) query's confidence for
	// matching one keyword; additional matched keywords raise it toward 1
	// relative to the best-matching tuple. This reproduces the baseline's
	// behaviour in the paper's assessment: almost nothing is confidently
	// rejectable, a few heavily-matching (and mostly wrong) tuples exceed
	// the acceptance bound, and the vast majority lands in the manual
	// verification band.
	out := make([]Result, 0, len(hits))
	for _, h := range hits {
		conf := 0.5
		if maxMatched > 1 {
			conf += 0.5 * float64(h.matched-1) / float64(maxMatched-1)
		}
		out = append(out, Result{Tuple: h.row, Confidence: conf, Query: "naive"})
	}
	stats.TuplesReturned = len(out)
	return out, stats, scanErr
}

// rowMatchesToken reports whether any cell of the row matches the token:
// exact (case-insensitive) equality for short values, token containment for
// text columns.
func rowMatchesToken(schema *relational.Schema, row *relational.Row, lowerTok string) bool {
	for i, col := range schema.Columns {
		v := row.Values[i].Str()
		if strings.EqualFold(v, lowerTok) {
			return true
		}
		if col.FullText && textutil.ContainsTerm(v, lowerTok) {
			return true
		}
	}
	return false
}
