package verification

import (
	"fmt"
	"reflect"
	"testing"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// cancelFixture returns a manager holding pending tasks of several
// annotations over overlapping tuples, plus the tasks it holds.
func cancelFixture(t *testing.T) (*Manager, []*Task) {
	t.Helper()
	m, err := NewManager(annotation.NewStore(), acg.New(0, 0), acg.NewProfile(), Bounds{Lower: 0.32, Upper: 0.86})
	if err != nil {
		t.Fatal(err)
	}
	var tasks []*Task
	for i := 0; i < 40; i++ {
		tasks = append(tasks, &Task{
			VID:        int64(100 - 2*i), // not in insertion order
			Annotation: annotation.ID(fmt.Sprintf("a%d", i%4)),
			Tuple:      tup(i % 7),
			Confidence: 0.5,
			Decision:   Pending,
		})
	}
	m.RestoreTasks(tasks, 200)
	return m, tasks
}

// refCancel is the cancellation loop the in-place filters replaced: walk
// the VID-sorted pending queue and reject every selected task.
func refCancel(m *Manager, selected func(*Task) bool) int {
	n := 0
	for _, t := range m.PendingTasks() {
		if !selected(t) {
			continue
		}
		delete(m.pending, t.VID)
		t.Decision = ExpertRejected
		n++
	}
	return n
}

type taskState struct {
	VID      int64
	Decision Decision
}

func states(tasks []*Task) []taskState {
	out := make([]taskState, len(tasks))
	for i, t := range tasks {
		out[i] = taskState{VID: t.VID, Decision: t.Decision}
	}
	return out
}

func TestCancelTasksMatchesSortedReference(t *testing.T) {
	cases := []struct {
		name     string
		cancel   func(*Manager) int
		selected func(*Task) bool
	}{
		{"annotation", func(m *Manager) int { return m.CancelTasksForAnnotation("a2") },
			func(t *Task) bool { return t.Annotation == "a2" }},
		{"absent annotation", func(m *Manager) int { return m.CancelTasksForAnnotation("zz") },
			func(t *Task) bool { return t.Annotation == "zz" }},
		{"tuple", func(m *Manager) int { return m.CancelTasksForTuple(tup(3)) },
			func(t *Task) bool { return t.Tuple == tup(3) }},
		{"absent tuple", func(m *Manager) int { return m.CancelTasksForTuple(relational.TupleID{Table: "Gene", Key: "s:none"}) },
			func(t *Task) bool { return false }},
	}
	for _, c := range cases {
		got, gotTasks := cancelFixture(t)
		want, wantTasks := cancelFixture(t)
		n, wantN := c.cancel(got), refCancel(want, c.selected)
		if n != wantN {
			t.Errorf("%s: cancelled %d, reference %d", c.name, n, wantN)
		}
		if g, w := states(got.PendingTasks()), states(want.PendingTasks()); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: survivors %v, reference %v", c.name, g, w)
		}
		if g, w := states(gotTasks), states(wantTasks); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: decisions %v, reference %v", c.name, g, w)
		}
	}
}
