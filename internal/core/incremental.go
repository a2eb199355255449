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
// initial batch is computed with cubeMasking; each insertion compares the
// new observation only against cubes that are lattice-comparable with its
// signature, so an insert costs O(comparable observations) instead of a
// recomputation.
type Incremental struct {
	// S is the underlying space (grows with insertions).
	S *Space
	// Res accumulates the relationship sets.
	Res *Result

	l     *lattice.Lattice
	tasks Tasks
}

// NewIncremental computes the initial relationships over s and returns the
// maintained state.
func NewIncremental(s *Space, tasks Tasks) *Incremental {
	res := NewResult()
	// A known algorithm with no budgets set: Compute cannot fail.
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
// and comparison counters and flushes them once on return.
func (inc *Incremental) Insert(o *qb.Observation) (int, error) { return inc.insert(o, inc.Res) }

// insert is Insert emitting into sink (tests record what it emits).
func (inc *Incremental) insert(o *qb.Observation, sink Sink) (int, error) {
	s := inc.S
	i, err := s.AppendObservation(o)
	if err != nil {
		return 0, err
	}
	p := s.NumDims()
	sig := s.Signature(i)

	var considered, pruned, compared, candTests, ordered, dimTests int64
	candA := make([]int, 0, p) // dimensions where new may contain cube
	candB := make([]int, 0, p) // dimensions where cube may contain new
	for _, c := range inc.l.Cubes() {
		considered++
		candTests += 2
		candA = sig.CandidateDims(c.Sig, candA)
		candB = c.Sig.CandidateDims(sig, candB)
		if len(candA) == 0 && len(candB) == 0 {
			pruned++
			continue
		}
		compared++
		ordered += 2 * int64(len(c.Obs))
		dimTests += int64(len(candA)+len(candB)) * int64(len(c.Obs))
		for _, j := range c.Obs {
			inc.comparePairBoth(i, j, candA, candB, sink)
		}
	}
	inc.l.Add(i, sig)
	s.count(CtrIncInserts, 1)
	s.count(CtrCubePairsConsidered, considered)
	s.count(CtrCubePairsPruned, pruned)
	s.count(CtrCubePairsCompared, compared)
	s.count(CtrCandidateDimTests, candTests)
	s.count(CtrObsPairsCompared, ordered)
	s.count(CtrDimTests, dimTests)
	return i, nil
}

// comparePairBoth resolves both directions of the pair (i, j) over the
// candidate dimensions.
func (inc *Incremental) comparePairBoth(i, j int, candA, candB []int, sink Sink) {
	s, p := inc.S, inc.S.NumDims()
	var degIJ, degJI int
	for _, d := range candA {
		if s.DimContains(i, j, d) {
			degIJ++
		}
	}
	for _, d := range candB {
		if s.DimContains(j, i, d) {
			degJI++
		}
	}
	shares := s.SharesMeasure(i, j)
	if inc.tasks.Has(TaskFull) && shares {
		if degIJ == p {
			sink.Full(i, j)
		}
		if degJI == p {
			sink.Full(j, i)
		}
	}
	if inc.tasks.Has(TaskPartial) && shares {
		if degIJ > 0 && degIJ < p {
			sink.Partial(i, j, float64(degIJ)/float64(p))
		}
		if degJI > 0 && degJI < p {
			sink.Partial(j, i, float64(degJI)/float64(p))
		}
	}
	if inc.tasks.Has(TaskCompl) && degIJ == p && degJI == p {
		sink.Compl(i, j)
	}
}
