package relational

import (
	"fmt"
	"strings"

	"nebula/internal/textutil"
)

// Op is a predicate comparison operator.
type Op int

const (
	// OpEq matches rows whose column equals the operand (case-insensitive
	// for strings, matching the paper's keyword-to-value semantics).
	OpEq Op = iota
	// OpContainsToken matches rows whose (text) column contains the operand
	// as a whole token.
	OpContainsToken
	// OpPrefix matches rows whose string rendering starts with the operand
	// (case-insensitive).
	OpPrefix
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpContainsToken:
		return "CONTAINS"
	case OpPrefix:
		return "PREFIX"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate is a single column comparison.
type Predicate struct {
	Column  string
	Op      Op
	Operand Value
}

func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %q", p.Column, p.Op, p.Operand.Str())
}

// Matches evaluates the predicate against a row.
func (p Predicate) Matches(r *Row) bool {
	b, ok := p.bind(r.schema)
	return ok && b.matches(r)
}

// boundPredicate is a Predicate resolved against one schema: the column
// name becomes an ordinal and the operand is lower-cased once, so a scan
// evaluates it per row without a name lookup or a case fold of the
// operand.
type boundPredicate struct {
	col     int
	op      Op
	operand Value
	lower   string // strings.ToLower(operand.Str()), for CONTAINS and PREFIX
}

func (p Predicate) bind(s *Schema) (boundPredicate, bool) {
	ci, ok := s.ColumnIndex(p.Column)
	if !ok {
		return boundPredicate{}, false
	}
	b := boundPredicate{col: ci, op: p.Op, operand: p.Operand}
	if p.Op != OpEq {
		b.lower = strings.ToLower(p.Operand.Str())
	}
	return b, true
}

// bindPredicates binds every predicate of q against t's schema, failing on
// the first unknown column.
func bindPredicates(t *Table, q Query) ([]boundPredicate, error) {
	out := make([]boundPredicate, len(q.Predicates))
	for i, p := range q.Predicates {
		b, ok := p.bind(t.schema)
		if !ok {
			return nil, fmt.Errorf("select: table %s has no column %q", q.Table, p.Column)
		}
		out[i] = b
	}
	return out, nil
}

func (b boundPredicate) matches(r *Row) bool {
	v := r.Values[b.col]
	switch b.op {
	case OpEq:
		return v.EqualFold(b.operand)
	case OpContainsToken:
		return textutil.ContainsTerm(v.Str(), b.lower)
	case OpPrefix:
		return textutil.HasLowerPrefix(v.Str(), b.lower)
	default:
		return false
	}
}

// matchesAll reports whether r satisfies every predicate except the one at
// index skip (the one an access path already satisfied; -1 for none).
func matchesAll(preds []boundPredicate, skip int, r *Row) bool {
	for i, p := range preds {
		if i != skip && !p.matches(r) {
			return false
		}
	}
	return true
}

// Query is a structured single-table selection with conjunctive predicates.
// The keyword search layer generates these the way Bergamaschi et al.'s
// configurations generate SQL.
type Query struct {
	Table      string
	Predicates []Predicate
}

func (q Query) String() string {
	if len(q.Predicates) == 0 {
		return "SELECT * FROM " + q.Table
	}
	parts := make([]string, len(q.Predicates))
	for i, p := range q.Predicates {
		parts[i] = p.String()
	}
	return "SELECT * FROM " + q.Table + " WHERE " + strings.Join(parts, " AND ")
}

// Fingerprint returns a canonical identity for the query used by the shared
// multi-query executor to detect identical sub-queries across keyword
// queries (§6's shared execution optimization).
func (q Query) Fingerprint() string {
	parts := make([]string, len(q.Predicates))
	for i, p := range q.Predicates {
		parts[i] = strings.ToLower(p.Column) + "\x00" + p.Op.String() + "\x00" + p.Operand.Key()
	}
	// Conjunction order is irrelevant: sort for canonical form.
	sortStrings(parts)
	return strings.ToLower(q.Table) + "\x01" + strings.Join(parts, "\x01")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
