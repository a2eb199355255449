package bitvec

// Batched word-parallel subset tests. The pair scan of the §3.1 baseline
// (and of §3.2's per-cluster scans, which are the baseline's) spends its
// time in v ⊆ u range tests; testing one row against candidates one pair at
// a time re-reads v's words and recomputes the range masks once per
// candidate. The batch kernels below walk the word range ONCE for up to
// BatchMax candidate rows, loading each v word a single time and
// amortizing the boundary-mask arithmetic across the whole batch — the
// candidate results live as bits of a packed uint64 mask (one lane per
// candidate, SWAR style) that is updated branch-free per word.

// BatchMax is the largest candidate batch the kernels accept: one result
// lane per bit of the packed result mask.
const BatchMax = 64

// nonzero returns 1 when x != 0 and 0 otherwise, without branching — the
// lane-update primitive of the batch kernels.
func nonzero(x uint64) uint64 { return (x | -x) >> 63 }

// batchMask returns the all-lanes-set mask for k candidates.
func batchMask(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(k)) - 1
}

// rangeWords bounds and masks the half-open bit range [lo, hi) over
// 64-bit words: first/last are the inclusive word indices, firstMask and
// lastMask the partial-word masks to apply at the boundaries.
func rangeWords(lo, hi int) (first, last int, firstMask, lastMask uint64) {
	first, last = lo/wordBits, (hi-1)/wordBits
	firstMask = ^uint64(0) << (uint(lo) % wordBits)
	lastMask = ^uint64(0)
	if r := uint(hi) % wordBits; r != 0 {
		lastMask = (uint64(1) << r) - 1
	}
	return
}

// SubsetBatch reports, for up to BatchMax candidate rows, whether
// v AND us[k] == v restricted to [lo, hi): bit k of the result is set
// exactly when v ⊆ us[k] on the range. One pass over v's words tests
// every candidate; the scan stops early once every lane has failed.
//
// No kernel calls it since the §3.3 sweep moved to code rows: its callers
// are this package's tests and the benchmark's bitvec.subset_ns_per_row
// probe, which is what keeps it (ROADMAP 2(a)).
func SubsetBatch(v *Vector, us []*Vector, lo, hi int) uint64 {
	checkBatch(v, us, lo, hi)
	fwd := batchMask(len(us))
	if lo == hi || fwd == 0 {
		return fwd
	}
	first, last, firstMask, lastMask := rangeWords(lo, hi)
	for w := first; w <= last; w++ {
		m := ^uint64(0)
		if w == first {
			m &= firstMask
		}
		if w == last {
			m &= lastMask
		}
		a := v.words[w] & m
		if a == 0 {
			continue // the empty set is a subset of everything
		}
		for k, u := range us {
			fwd &^= nonzero(a&^u.words[w]) << uint(k)
		}
		if fwd == 0 {
			break
		}
	}
	return fwd
}

// SubsetBatchBoth tests both directions of the containment relation in
// one fused pass: bit k of fwd is set when v ⊆ us[k] on [lo, hi), bit k
// of rev when us[k] ⊆ v. This is the §3.1 inner loop's shape — the
// baseline resolves both directions of every pair per dimension — so the
// fused kernel halves the passes a two-call formulation would make and
// reads each candidate word exactly once for both answers.
func SubsetBatchBoth(v *Vector, us []*Vector, lo, hi int) (fwd, rev uint64) {
	checkBatch(v, us, lo, hi)
	all := batchMask(len(us))
	fwd, rev = all, all
	if lo == hi || all == 0 {
		return fwd, rev
	}
	first, last, firstMask, lastMask := rangeWords(lo, hi)
	for w := first; w <= last; w++ {
		m := ^uint64(0)
		if w == first {
			m &= firstMask
		}
		if w == last {
			m &= lastMask
		}
		a := v.words[w] & m
		for k, u := range us {
			b := u.words[w] & m
			fwd &^= nonzero(a&^b) << uint(k)
			rev &^= nonzero(b&^a) << uint(k)
		}
		if fwd|rev == 0 {
			break
		}
	}
	return fwd, rev
}

// checkBatch validates the shared preconditions of the batch kernels.
func checkBatch(v *Vector, us []*Vector, lo, hi int) {
	if len(us) > BatchMax {
		panic("bitvec: batch larger than BatchMax")
	}
	if lo < 0 || hi > v.n || lo > hi {
		panic("bitvec: batch range out of range")
	}
	for _, u := range us {
		if u.n != v.n {
			panic("bitvec: batch length mismatch")
		}
	}
}
