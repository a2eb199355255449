package core

// sweepChunk is the number of inner rows sweepRow compares between two
// guard charges, so abort points fall between chunks of at most this many
// rows, never inside one.
const sweepChunk = 64

// sweepRow is the lattice side's only comparison: observation i against
// each observation of js (none of them i), over the code rows — the
// preorder interval test of IsAncestorIdx, no occurrence-matrix row is
// read. Forward ("does i contain j") is tested on the cand dimensions; nil
// means every dimension. With both set (and cand nil) the backward
// direction is resolved on every dimension in the same pass, so one visit
// settles the unordered pair: each direction is its own interval test, and
// equal codes pass both. Without the partial task a pair is
// dropped at the first dimension that rules out every direction asked for
// (the paper's "at least one 0" pruning).
//
// The cube walk stays with the callers: the batch sweep computes cand
// once per cube pair, and a primitive that walked the lattice itself
// would recompute it once per row.
//
// A non-nil guard is charged through pc per chunk, before the chunk
// emits, so a canceled call has emitted an exact prefix of its emission
// stream. The returned counts (ordered pairs compared, per-dimension
// tests made) are the caller's to flush, also on error.
func sweepRow(s *Space, i int, js []int, cand []int, both bool, tasks Tasks, sink Sink, g *guard, pc *pairCharge) (ordered, dimTests int64, err error) {
	p := len(s.Dims)
	vi, mi := s.vals[i], s.mmask[i]
	partial := tasks.Has(TaskPartial)
	dirs := int64(1)
	if both {
		dirs = 2
	}
	for len(js) > 0 {
		chunk := js[:min(sweepChunk, len(js))]
		js = js[len(chunk):]
		if g != nil {
			if err = pc.add(g, dirs*int64(len(chunk))); err != nil {
				return ordered, dimTests, err
			}
		}
		ordered += dirs * int64(len(chunk))
		for _, j := range chunk {
			vj := s.vals[j]
			var degIJ, degJI int
			switch {
			case both:
				for d, a := range vi {
					dimTests++
					b := vj[d]
					if s.IsAncestorIdx(d, a, b) {
						degIJ++
					}
					if s.IsAncestorIdx(d, b, a) {
						degJI++
					}
					if !partial && degIJ <= d && degJI <= d {
						break
					}
				}
			case cand == nil:
				for d, a := range vi {
					dimTests++
					if s.IsAncestorIdx(d, a, vj[d]) {
						degIJ++
					} else if !partial {
						break
					}
				}
			default:
				// A proper subset of the dimensions: degIJ stays under p,
				// so only the partial degree is at stake.
				for _, d := range cand {
					dimTests++
					if s.IsAncestorIdx(d, vi[d], vj[d]) {
						degIJ++
					}
				}
			}
			emitPair(sink, tasks, p, i, j, degIJ, degJI, mi&s.mmask[j] != 0)
		}
	}
	return ordered, dimTests, nil
}

// emitPair is the one place containment degrees become relationships
// (Definitions 3–4, Algorithm 2's criteria): degIJ and degJI are the
// numbers of dimensions on which i contains j and j contains i, out of p;
// shares is M_i ∩ M_j ≠ ∅. A direction the caller did not resolve is
// passed as 0; without the partial task a direction that can no longer be
// full may be passed as any count below p.
func emitPair(sink Sink, tasks Tasks, p, i, j, degIJ, degJI int, shares bool) {
	if shares && tasks.Has(TaskFull) {
		if degIJ == p {
			sink.Full(i, j)
		}
		if degJI == p {
			sink.Full(j, i)
		}
	}
	if shares && tasks.Has(TaskPartial) {
		if degIJ > 0 && degIJ < p {
			sink.Partial(i, j, float64(degIJ)/float64(p))
		}
		if degJI > 0 && degJI < p {
			sink.Partial(j, i, float64(degJI)/float64(p))
		}
	}
	if tasks.Has(TaskCompl) && degIJ == p && degJI == p {
		sink.Compl(i, j)
	}
}
