package verification

import (
	"fmt"
	"sort"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/discovery"
	"nebula/internal/relational"
)

// Manager routes predictions through the verification pipeline and applies
// the acceptance side effects the paper enumerates for the `Verify
// Attachment <vid>` command: (1) attach the annotation to the tuple as a
// True Attachment, (2) update the ACG, and (3) update the metadata profile
// that guides focal-based spreading. The same actions run for
// auto-accepted predictions.
type Manager struct {
	store   *annotation.Store
	graph   *acg.Graph
	profile *acg.Profile

	bounds  Bounds
	nextVID int64
	pending map[int64]*Task
}

// NewManager builds a verification manager. graph and profile may be nil if
// the deployment does not maintain them; the corresponding side effects are
// skipped.
func NewManager(store *annotation.Store, graph *acg.Graph, profile *acg.Profile, bounds Bounds) (*Manager, error) {
	if err := bounds.Validate(); err != nil {
		return nil, err
	}
	return &Manager{
		store:   store,
		graph:   graph,
		profile: profile,
		bounds:  bounds,
		pending: make(map[int64]*Task),
	}, nil
}

// Bounds returns the current thresholds.
func (m *Manager) Bounds() Bounds { return m.bounds }

// NextVID returns the VID the next submitted task will receive. The WAL
// records it with each submission so replay reproduces identical task
// identifiers.
func (m *Manager) NextVID() int64 { return m.nextVID }

// SetNextVID pins the VID counter — the replay half of NextVID. It never
// moves the counter backwards past an issued VID's successor would allow:
// callers replaying history pass the recorded FirstVID, which by
// construction is >= every VID issued before it.
func (m *Manager) SetNextVID(v int64) {
	if v > m.nextVID {
		m.nextVID = v
	}
}

// ForceAccept applies the acceptance side effects (attach, ACG edge,
// profile update) for an attachment whose pending task no longer exists —
// the WAL-replay path for an expert verdict whose task cannot be found in
// the pending map (a snapshot written before the queue became snapshot
// state, with the submission itself pruned by a checkpoint). It is exactly
// Verify without the pending-map lookup.
func (m *Manager) ForceAccept(a annotation.ID, tuple relational.TupleID, focal []relational.TupleID) error {
	task := &Task{Annotation: a, Tuple: tuple, Decision: ExpertAccepted, Confidence: 1}
	return m.applyAcceptances(a, focal, []*Task{task})
}

// RestoreTasks reinstates a snapshot's pending expert queue and VID
// counter. The counter never moves backwards: it lands past both the
// recorded nextVID and every restored task's VID, so tasks submitted
// after a restore cannot collide with queued identifiers.
func (m *Manager) RestoreTasks(tasks []*Task, nextVID int64) {
	m.SetNextVID(nextVID)
	for _, t := range tasks {
		m.pending[t.VID] = t
		if t.VID >= m.nextVID {
			m.nextVID = t.VID + 1
		}
	}
}

// SetBounds replaces the thresholds (e.g. after a BoundsSetting run).
func (m *Manager) SetBounds(b Bounds) error {
	if err := b.Validate(); err != nil {
		return err
	}
	m.bounds = b
	return nil
}

// Outcome summarizes one Submit call.
type Outcome struct {
	// Accepted are the auto-accepted tasks (side effects applied).
	Accepted []*Task
	// Rejected are the auto-rejected tasks (discarded).
	Rejected []*Task
	// Pending are the tasks stored for expert verification.
	Pending []*Task
}

// Submit routes the discovered candidates of one annotation. Candidates
// above β_upper are accepted immediately; below β_lower they are discarded;
// the rest become pending tasks queryable via PendingTasks and resolvable
// with Verify/Reject.
//
// The hop-profile update runs against the ACG state *before* the new edges
// are added (per §6.3's profile-update protocol), so Submit measures all
// accepted tuples' distances first, then applies the graph updates.
func (m *Manager) Submit(a annotation.ID, focal []relational.TupleID, candidates []discovery.Candidate) (Outcome, error) {
	return m.submit(a, focal, candidates, false)
}

// SubmitDegraded routes the candidates of a degraded discovery run — one
// that was truncated by a budget, interrupted by a deadline, or forced off
// its configured search strategy. Confidences from such runs are computed
// against an incomplete evidence base (normalization saw only part of the
// result set), so nothing is auto-accepted: candidates that would clear
// β_upper become pending expert-verification tasks instead. Auto-rejection
// below β_lower still applies — a truncated run only ever under-reports
// confidence-inflating evidence for the tuples it did produce.
func (m *Manager) SubmitDegraded(a annotation.ID, focal []relational.TupleID, candidates []discovery.Candidate) (Outcome, error) {
	return m.submit(a, focal, candidates, true)
}

func (m *Manager) submit(a annotation.ID, focal []relational.TupleID, candidates []discovery.Candidate, degraded bool) (Outcome, error) {
	var out Outcome
	if _, ok := m.store.Get(a); !ok {
		return out, fmt.Errorf("verification: unknown annotation %q", a)
	}
	for _, c := range candidates {
		task := &Task{
			VID:        m.nextVID,
			Annotation: a,
			Tuple:      c.Tuple.ID,
			Confidence: c.Confidence,
			Evidence:   append([]string(nil), c.Evidence...),
			Decision:   m.bounds.Route(c.Confidence),
		}
		if degraded && task.Decision == AutoAccepted {
			task.Decision = Pending
		}
		m.nextVID++
		switch task.Decision {
		case AutoAccepted:
			out.Accepted = append(out.Accepted, task)
		case AutoRejected:
			out.Rejected = append(out.Rejected, task)
		default:
			m.pending[task.VID] = task
			out.Pending = append(out.Pending, task)
		}
	}
	if err := m.applyAcceptances(a, focal, out.Accepted); err != nil {
		return out, err
	}
	return out, nil
}

// Pending returns the pending task with the given VID, if any — the
// VID-keyed lookup behind `Verify/Reject Attachment <vid>`. O(1); the
// returned task is live and must not be mutated by callers.
func (m *Manager) Pending(vid int64) (*Task, bool) {
	t, ok := m.pending[vid]
	return t, ok
}

// applyAcceptances runs the acceptance side effects for a batch of tasks of
// one annotation.
func (m *Manager) applyAcceptances(a annotation.ID, focal []relational.TupleID, tasks []*Task) error {
	if len(tasks) == 0 {
		return nil
	}
	// Measure hop distances before mutating the graph: every task shares
	// the focal, so one search answers the whole batch. Recording follows
	// task order.
	if m.profile != nil && m.graph != nil {
		targets := make([]relational.TupleID, len(tasks))
		for i, t := range tasks {
			targets[i] = t.Tuple
		}
		hops, reachable := m.graph.HopsToEach(targets, focal)
		for i := range tasks {
			m.profile.Record(hops[i], reachable[i])
		}
	}
	for _, t := range tasks {
		if _, err := m.store.Attach(annotation.Attachment{
			Annotation: a,
			Tuple:      t.Tuple,
			Type:       annotation.TrueAttachment,
		}); err != nil {
			return fmt.Errorf("verification: %w", err)
		}
		if m.graph != nil {
			m.graph.AddAttachment(a, t.Tuple)
		}
	}
	return nil
}

// PendingTasks returns the stored pending tasks ordered by VID — the
// queryable system table of §7.
func (m *Manager) PendingTasks() []*Task {
	out := make([]*Task, 0, len(m.pending))
	for _, t := range m.pending {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VID < out[j].VID })
	return out
}

// PendingTasksByPriority returns the pending tasks ordered for expert
// consumption: highest confidence first (the attachments most likely to
// convert), ties broken by VID. This is the ranking-and-prioritization
// surface of the paper's contribution list — experts with limited time
// work from the top.
func (m *Manager) PendingTasksByPriority() []*Task {
	out := m.PendingTasks()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].VID < out[j].VID
	})
	return out
}

// Verify implements `Verify Attachment <vid>`: the expert accepts the
// pending task, which triggers the same side effects as auto-acceptance.
// focal must be the annotation's focal at submission time (used for the
// profile update).
func (m *Manager) Verify(vid int64, focal []relational.TupleID) error {
	task, ok := m.pending[vid]
	if !ok {
		return fmt.Errorf("verification: no pending task v%d", vid)
	}
	delete(m.pending, vid)
	task.Decision = ExpertAccepted
	return m.applyAcceptances(task.Annotation, focal, []*Task{task})
}

// Reject implements `Reject Attachment <vid>`: the expert discards the
// pending task.
func (m *Manager) Reject(vid int64) error {
	task, ok := m.pending[vid]
	if !ok {
		return fmt.Errorf("verification: no pending task v%d", vid)
	}
	delete(m.pending, vid)
	task.Decision = ExpertRejected
	return nil
}

// CancelTasksForTuple discards every pending task targeting the tuple —
// the referential-integrity hook for tuple deletion. Cancelled tasks are
// marked ExpertRejected (the attachment can no longer exist). It returns
// the number of cancelled tasks.
func (m *Manager) CancelTasksForTuple(tuple relational.TupleID) int {
	n := 0
	for vid, t := range m.pending {
		if t.Tuple != tuple {
			continue
		}
		delete(m.pending, vid)
		t.Decision = ExpertRejected
		n++
	}
	return n
}

// CancelTasksForAnnotation discards every pending task of one annotation —
// the retraction hook for change-driven re-discovery: before an annotation
// is re-discovered its undecided tasks are superseded, because their
// confidences were computed over a database state that no longer exists.
// Cancelled tasks are marked ExpertRejected. It returns the number of
// cancelled tasks. The pending map is filtered in place: the outcome does
// not depend on visiting order, so WAL replay, which retracts once per
// re-discovered annotation, never sorts the whole queue.
func (m *Manager) CancelTasksForAnnotation(a annotation.ID) int {
	n := 0
	for vid, t := range m.pending {
		if t.Annotation != a {
			continue
		}
		delete(m.pending, vid)
		t.Decision = ExpertRejected
		n++
	}
	return n
}

// ResolveWithOracle resolves every pending task of the annotation using an
// oracle (the experiments' simulated expert). It returns the positively and
// negatively verified tasks.
func (m *Manager) ResolveWithOracle(a annotation.ID, focal []relational.TupleID, oracle Oracle) (accepted, rejected []*Task, err error) {
	for _, t := range m.PendingTasks() {
		if t.Annotation != a {
			continue
		}
		if oracle.IsRelated(a, t.Tuple) {
			if err := m.Verify(t.VID, focal); err != nil {
				return nil, nil, err
			}
			accepted = append(accepted, t)
		} else {
			if err := m.Reject(t.VID); err != nil {
				return nil, nil, err
			}
			rejected = append(rejected, t)
		}
	}
	return accepted, rejected, nil
}
