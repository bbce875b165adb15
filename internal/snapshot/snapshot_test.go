package snapshot

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/relational"
	"nebula/internal/workload"
)

func capture(t *testing.T) (State, *Snapshot) {
	t.Helper()
	ds, err := workload.Generate(workload.TinyConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	profile := acg.NewProfile()
	profile.Record(1, true)
	profile.Record(2, true)
	profile.Record(0, false)
	st := State{DB: ds.DB, Store: ds.Store, Graph: ds.Graph, Profile: profile}
	snap, err := Capture(st)
	if err != nil {
		t.Fatal(err)
	}
	return st, snap
}

func TestRoundTripThroughGob(t *testing.T) {
	orig, snap := capture(t)
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := loaded.Restore()
	if err != nil {
		t.Fatal(err)
	}

	// Data round-trips: same tables, cardinalities, and cell values.
	if got, want := restored.DB.TotalRows(), orig.DB.TotalRows(); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
	for _, name := range orig.DB.TableNames() {
		ot := orig.DB.MustTable(name)
		rt, ok := restored.DB.Table(name)
		if !ok || rt.Len() != ot.Len() {
			t.Fatalf("table %s mismatch", name)
		}
		for i, row := range ot.Rows() {
			rrow := rt.Rows()[i]
			for j, v := range row.Values {
				if !v.Equal(rrow.Values[j]) {
					t.Fatalf("%s row %d col %d: %v != %v", name, i, j, v, rrow.Values[j])
				}
			}
		}
	}

	// Annotations and attachments round-trip.
	if restored.Store.Len() != orig.Store.Len() {
		t.Fatalf("annotations = %d, want %d", restored.Store.Len(), orig.Store.Len())
	}
	if restored.Store.EdgeCount() != orig.Store.EdgeCount() {
		t.Fatalf("edges = %d, want %d", restored.Store.EdgeCount(), orig.Store.EdgeCount())
	}
	for _, id := range orig.Store.IDs() {
		oa, _ := orig.Store.Get(id)
		ra, ok := restored.Store.Get(id)
		if !ok || ra.Body != oa.Body || ra.Kind != oa.Kind {
			t.Fatalf("annotation %s mismatch", id)
		}
	}

	// ACG round-trips: same node/edge counts and weights.
	if restored.Graph.Nodes() != orig.Graph.Nodes() || restored.Graph.Edges() != orig.Graph.Edges() {
		t.Fatalf("graph %d/%d, want %d/%d", restored.Graph.Nodes(), restored.Graph.Edges(),
			orig.Graph.Nodes(), orig.Graph.Edges())
	}
	for id, tuples := range orig.Graph.AttachmentList() {
		for _, a := range tuples {
			for _, b := range tuples {
				if a != b && restored.Graph.Weight(a, b) != orig.Graph.Weight(a, b) {
					t.Fatalf("weight(%v,%v) mismatch", a, b)
				}
			}
		}
		_ = id
	}
	// Stability counters preserved.
	ob, om, oa2, oat, oe, oc, os := orig.Graph.StabilityState()
	rb, rm, ra2, rat, re, rc, rs := restored.Graph.StabilityState()
	if ob != rb || om != rm || oa2 != ra2 || oat != rat || oe != re || oc != rc || os != rs {
		t.Fatal("stability state mismatch")
	}

	// Profile round-trips.
	if restored.Profile.Total() != orig.Profile.Total() ||
		restored.Profile.Unreachable() != orig.Profile.Unreachable() ||
		restored.Profile.Bucket(1) != orig.Profile.Bucket(1) {
		t.Fatal("profile mismatch")
	}
}

func TestCaptureValidation(t *testing.T) {
	if _, err := Capture(State{}); err == nil {
		t.Error("nil state should fail")
	}
}

func TestVersionChecks(t *testing.T) {
	_, snap := capture(t)
	snap.Version = 99
	if _, err := snap.Restore(); err == nil {
		t.Error("version mismatch should fail on Restore")
	}
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("version mismatch should fail on Load")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("garbage should fail")
	}
}

func TestRestoredStateIsLive(t *testing.T) {
	// A restored state must accept new work: add an annotation, attach it,
	// grow the graph.
	_, snap := capture(t)
	st, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	gt := st.DB.MustTable("Gene")
	row := gt.Rows()[0]
	if err := st.Store.Add(&annotation.Annotation{ID: "post-restore", Body: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Store.Attach(annotation.Attachment{
		Annotation: "post-restore", Tuple: row.ID, Type: annotation.TrueAttachment,
	}); err != nil {
		t.Fatal(err)
	}
	st.Graph.AddAnnotation("post-restore", []relational.TupleID{row.ID})
	if !st.Graph.Contains(row.ID) {
		t.Error("restored graph not live")
	}
	// Indexes were rebuilt: lookups work.
	pk := row.MustGet("GID")
	if _, ok := gt.GetByPK(pk); !ok {
		t.Error("restored index lookup failed")
	}
}

// TestRoundTripGraphAttachmentOrder churns the ACG first — removals free
// node slots that later attachments reuse, and re-attaching a tuple moves
// it to the end of its annotation's order — so slot order and attachment
// order diverge. The restored graph must export the same AttachmentList,
// attachment order included, and the hop profile the same buckets.
func TestRoundTripGraphAttachmentOrder(t *testing.T) {
	ds, err := workload.Generate(workload.TinyConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	list := g.AttachmentList()
	ids := make([]string, 0, len(list))
	for id := range list {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	if len(ids) < 12 {
		t.Fatalf("fixture has %d annotations, need 12", len(ids))
	}
	for _, id := range ids[:10] {
		if ts := list[annotation.ID(id)]; len(ts) > 1 {
			g.RemoveAttachment(annotation.ID(id), ts[0])
			g.AddAttachment(annotation.ID(id), ts[0])
		}
	}
	moved := list[annotation.ID(ids[10])][0]
	g.RemoveTuple(moved)
	g.AddAnnotation("churn", []relational.TupleID{moved, list[annotation.ID(ids[11])][0]})

	profile := acg.NewProfile()
	for h, n := range []int{3, 5, 2, 1} {
		for i := 0; i < n; i++ {
			profile.Record(h, true)
		}
	}
	profile.Record(0, false)
	snap, err := Capture(State{DB: ds.DB, Store: ds.Store, Graph: g, Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := loaded.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Graph.AttachmentList(), g.AttachmentList(); !reflect.DeepEqual(got, want) {
		t.Fatal("restored AttachmentList differs (attachment order included)")
	}
	gotB, gotU := restored.Profile.Counts()
	wantB, wantU := profile.Counts()
	if !reflect.DeepEqual(gotB, wantB) || gotU != wantU {
		t.Fatalf("profile buckets %v/%d, want %v/%d", gotB, gotU, wantB, wantU)
	}
}
