package core

import (
	"rdfcube/internal/lattice"
	"rdfcube/internal/qb"
)

// ValidateObservation checks that o can join the space — its dataset
// schema uses only known dimensions and measures, and its values belong
// to the existing code lists — without mutating anything. Serving layers
// call it before durably logging an insert, so a record that reaches the
// write-ahead log is guaranteed to apply cleanly on replay.
func (s *Space) ValidateObservation(o *qb.Observation) error {
	_, err := s.compileRow(o, make([]int32, len(s.Dims)))
	return err
}

// AppendObservation extends the compiled space with one more observation.
// The observation's dataset schema must use only dimensions and measures
// already present in the space, and its values must belong to the existing
// code lists (the batch corpus fixes the feature space; this mirrors the
// paper's assumption that code lists are shared reference vocabularies).
// It returns the new observation's index. Validation happens before any
// mutation: on error the space is unchanged.
func (s *Space) AppendObservation(o *qb.Observation) (int, error) {
	row := make([]int32, len(s.Dims))
	mask, err := s.compileRow(o, row)
	if err != nil {
		return 0, err
	}
	s.Obs = append(s.Obs, o)
	s.vals = append(s.vals, row)
	s.mmask = append(s.mmask, mask)
	return len(s.Obs) - 1, nil
}

// Incremental maintains relationship sets under observation insertions —
// the paper's §6 "efficient incremental techniques" future-work item. The
// initial batch is computed with cubeMasking; each insertion is one
// sweepRow of the new observation, both directions at once, against every
// cube that is lattice-comparable with its signature under the task mask
// (cubesComparable), so an insert costs O(comparable observations) instead
// of a recomputation.
type Incremental struct {
	// S is the underlying space (grows with insertions).
	S *Space
	// Res accumulates the relationship sets the inserts emit. A caller
	// that stores them elsewhere empties it before each insert, so that it
	// holds one insert's delta (serve folds that into a core.Index).
	Res *Result

	l     *lattice.Lattice
	tasks Tasks
}

// NewIncremental computes the initial relationships over s and returns the
// maintained state.
func NewIncremental(s *Space, tasks Tasks) *Incremental {
	res := NewResult()
	// A known algorithm under a background context: Compute cannot fail.
	_ = Compute(s, AlgorithmCubeMasking, Options{Tasks: tasks}, res)
	return NewIncrementalFrom(s, tasks, res, nil)
}

// NewIncrementalFrom resumes incremental maintenance over an already
// computed state — the restart path of a long-running service: a snapshot
// restores the space and result that a previous cubeMasking run paid for,
// and maintenance picks up where it left off without recomputation. A nil
// res starts from empty sets (inserts then only discover relationships
// involving new observations); a nil l rebuilds the lattice from the
// space's signatures in one linear scan.
func NewIncrementalFrom(s *Space, tasks Tasks, res *Result, l *lattice.Lattice) *Incremental {
	if tasks == 0 {
		tasks = TaskAll
	}
	if res == nil {
		res = NewResult()
	}
	if l == nil {
		l = BuildLattice(s)
	}
	return &Incremental{S: s, Res: res, l: l, tasks: tasks}
}

// Lattice exposes the maintained lattice (for inspection).
func (inc *Incremental) Lattice() *lattice.Lattice { return inc.l }

// Insert adds one observation, updates the relationship sets with every
// relationship the new observation participates in, and returns its index.
// With a recorder attached to the space, each insert batches its pruning
// and comparison counters and flushes them once on return; pruned +
// compared cube pairs equal the cubes considered, as in the batch sweep.
func (inc *Incremental) Insert(o *qb.Observation) (int, error) { return inc.insert(o, inc.Res) }

// insert is Insert emitting into sink (tests record what it emits).
func (inc *Incremental) insert(o *qb.Observation, sink Sink) (int, error) {
	s := inc.S
	i, err := s.AppendObservation(o)
	if err != nil {
		return 0, err
	}
	sig := s.Signature(i)

	cubes := inc.l.Cubes()
	considered := int64(len(cubes))
	var compared, ordered, dimTests int64
	for _, c := range cubes {
		if !cubesComparable(inc.tasks, sig, c.Sig) {
			continue
		}
		compared++
		// An insert runs unguarded, so the sweep cannot fail.
		pairs, tests, _ := sweepRow(s, i, c.Obs, nil, true, inc.tasks, sink, nil, nil)
		ordered, dimTests = ordered+pairs, dimTests+tests
	}
	inc.l.Add(i, sig)
	s.count(CtrIncInserts, 1)
	s.count(CtrCubePairsConsidered, considered)
	s.count(CtrCubePairsPruned, considered-compared)
	s.count(CtrCubePairsCompared, compared)
	if !inc.tasks.Has(TaskPartial) {
		s.count(CtrCandidateDimTests, considered)
	}
	s.count(CtrObsPairsCompared, ordered)
	s.count(CtrDimTests, dimTests)
	return i, nil
}

// cubesComparable reports whether members of cubes a and b can be related
// under tasks in either direction. With the partial task every pair of
// cubes is: on each dimension one signature is ≤ the other, so one
// direction always keeps a candidate dimension. Full containment needs one
// signature level-wise ≤ the other on every dimension; complementarity
// alone, equal values, needs the same cube.
func cubesComparable(tasks Tasks, a, b lattice.Signature) bool {
	switch {
	case tasks.Has(TaskPartial):
		return true
	case tasks.Has(TaskFull):
		return a.LE(b) || b.LE(a)
	default:
		return a.Equal(b)
	}
}
