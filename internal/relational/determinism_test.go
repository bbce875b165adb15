package relational

import (
	"fmt"
	"reflect"
	"testing"
)

// detMultiDB builds two tables big enough that the shared passes split into
// several row segments, with one indexed and several unindexed columns.
func detMultiDB(t testing.TB, rows int) *Database {
	t.Helper()
	db := NewDatabase()
	for _, s := range []*Schema{
		{
			Name: "Gene",
			Columns: []Column{
				{Name: "GID", Type: TypeString, Indexed: true},
				{Name: "Family", Type: TypeString},
				{Name: "Length", Type: TypeInt},
			},
			PrimaryKey: "GID",
		},
		{
			Name: "Protein",
			Columns: []Column{
				{Name: "PID", Type: TypeString, Indexed: true},
				{Name: "PType", Type: TypeString},
			},
			PrimaryKey: "PID",
		},
	} {
		if _, err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	gt, pt := db.MustTable("Gene"), db.MustTable("Protein")
	for i := 0; i < rows; i++ {
		if _, err := gt.Insert([]Value{
			String(fmt.Sprintf("JW%05d", i)),
			String(fmt.Sprintf("F%d", i%17)),
			Int(int64(i % 900)),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := pt.Insert([]Value{
			String(fmt.Sprintf("P%05d", i)),
			String(fmt.Sprintf("T%d", i%5)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// detMultiQueries mixes indexed lookups, single-predicate scans (hash-probe
// path), and multi-predicate scans (residual path) over both tables,
// including duplicates.
func detMultiQueries(n int) []Query {
	qs := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			qs = append(qs, Query{Table: "Gene", Predicates: []Predicate{
				{Column: "Family", Op: OpEq, Operand: String(fmt.Sprintf("F%d", i%17))}}})
		case 1:
			qs = append(qs, Query{Table: "Gene", Predicates: []Predicate{
				{Column: "GID", Op: OpEq, Operand: String(fmt.Sprintf("JW%05d", (i*13)%300))}}})
		case 2: // multi-predicate over unindexed columns: the residual path
			qs = append(qs, Query{Table: "Gene", Predicates: []Predicate{
				{Column: "Family", Op: OpEq, Operand: String(fmt.Sprintf("F%d", i%7))},
				{Column: "Length", Op: OpEq, Operand: Int(int64(i % 900))}}})
		default:
			qs = append(qs, Query{Table: "Protein", Predicates: []Predicate{
				{Column: "PType", Op: OpEq, Operand: String(fmt.Sprintf("T%d", i%5))}}})
		}
	}
	return qs
}

// TestSelectMultiWorkersDeterministic checks that SelectMultiWorkers is
// byte-identical to SelectMulti — same row slices in the same order, same
// stats — at every worker count, including counts far beyond the segment
// supply.
func TestSelectMultiWorkersDeterministic(t *testing.T) {
	db := detMultiDB(t, 2000)
	qs := detMultiQueries(40)
	baseRows, baseStats, err := db.SelectMulti(qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 7, 64} {
		rows, stats, err := db.SelectMultiWorkers(qs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(rows, baseRows) {
			t.Errorf("workers=%d: result rows diverged from sequential", workers)
		}
		if stats != baseStats {
			t.Errorf("workers=%d: stats = %+v, want %+v", workers, stats, baseStats)
		}
	}
}

// TestSelectMultiWorkersValidation checks that validation errors surface
// identically whatever the worker count.
func TestSelectMultiWorkersValidation(t *testing.T) {
	db := detMultiDB(t, 10)
	bad := []Query{{Table: "Nope"}}
	for _, workers := range []int{1, 4} {
		if _, _, err := db.SelectMultiWorkers(bad, workers); err == nil {
			t.Errorf("workers=%d: no error for unknown table", workers)
		}
	}
	bad = []Query{{Table: "Gene", Predicates: []Predicate{{Column: "Nope", Op: OpEq, Operand: String("x")}}}}
	for _, workers := range []int{1, 4} {
		if _, _, err := db.SelectMultiWorkers(bad, workers); err == nil {
			t.Errorf("workers=%d: no error for unknown column", workers)
		}
	}
}
