package core

// Skyline returns the indices of the observations that are not fully
// contained by any other observation — the "top-level observations" the
// paper's introduction derives from containment computation. The lattice
// prunes the dominance tests: only observations in cubes whose signature is
// level-wise ≤ a candidate's cube can contain it.
func Skyline(s *Space) []int {
	l := BuildLattice(s)
	cubes := l.Cubes()
	p := s.NumDims()
	contained := make([]bool, s.N())
	for _, a := range cubes {
		for _, b := range cubes {
			if !a.Sig.LE(b.Sig) {
				continue
			}
			for _, j := range b.Obs {
				if contained[j] {
					continue
				}
				for _, i := range a.Obs {
					if i == j {
						continue
					}
					if fullContainsFast(s, i, j, p) {
						contained[j] = true
						break
					}
				}
			}
		}
	}
	var out []int
	for i := 0; i < s.N(); i++ {
		if !contained[i] {
			out = append(out, i)
		}
	}
	return out
}

// KDominantSkyline returns the observations that no other observation
// k-dominates, after Chan et al.'s k-dominance, which the paper identifies
// with partial containment: observation a k-dominates b when they share a
// measure, a's value contains b's on at least k dimensions, and a is
// strictly higher in the hierarchy on at least one of them. k = |P| with
// the strictness requirement dropped degenerates to full containment.
func KDominantSkyline(s *Space, k int) []int {
	n := s.N()
	p := s.NumDims()
	if k > p {
		k = p
	}
	dominated := make([]bool, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n && !dominated[j]; i++ {
			if i == j {
				continue
			}
			if kDominates(s, i, j, k, p) {
				dominated[j] = true
			}
		}
	}
	var out []int
	for i := 0; i < n; i++ {
		if !dominated[i] {
			out = append(out, i)
		}
	}
	return out
}

func kDominates(s *Space, i, j, k, p int) bool {
	if !s.SharesMeasure(i, j) {
		return false
	}
	deg, strict := 0, false
	for d := 0; d < p; d++ {
		if s.DimContains(i, j, d) {
			deg++
			if s.ValueIndex(i, d) != s.ValueIndex(j, d) {
				strict = true
			}
		}
	}
	return deg >= k && strict
}

func fullContainsFast(s *Space, i, j, p int) bool {
	if !s.SharesMeasure(i, j) {
		return false
	}
	for d := 0; d < p; d++ {
		if !s.DimContains(i, j, d) {
			return false
		}
	}
	return true
}

// KDominantSkylineFromResult derives the k-dominant skyline from already
// materialized relationship sets — the paper's §1 point that materializing
// containment "provides a means to directly access skyline, or k-dominant
// skyline points". A full pair dominates at every k (given a strict
// dimension); a partial pair dominates when its degree covers at least k
// dimensions and one of them is strict. The result equals
// KDominantSkyline(s, k) computed from scratch.
func KDominantSkylineFromResult(s *Space, res *Result, k int) []int {
	p := s.NumDims()
	if k > p {
		k = p
	}
	dominated := make([]bool, s.N())
	consider := func(a, b int, deg int) {
		if dominated[b] || deg < k {
			return
		}
		for d := 0; d < p; d++ {
			if s.ValueIndex(a, d) != s.ValueIndex(b, d) && s.DimContains(a, b, d) {
				dominated[b] = true
				return
			}
		}
	}
	for _, pr := range res.FullSet {
		consider(pr.A, pr.B, p)
	}
	for _, pr := range res.PartialSet {
		consider(pr.A, pr.B, s.ContainDegree(pr.A, pr.B))
	}
	var out []int
	for i := 0; i < s.N(); i++ {
		if !dominated[i] {
			out = append(out, i)
		}
	}
	return out
}
