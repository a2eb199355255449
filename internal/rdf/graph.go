package rdf

import "sort"

// ID is a dictionary-encoded term identifier local to one Graph.
type ID uint32

// NoID is returned by Lookup when a term is not present in the dictionary.
const NoID = ID(1<<32 - 1)

// Graph is an in-memory, fully indexed RDF triple store.
//
// Terms are dictionary-encoded to dense IDs; three nested-map indexes (SPO,
// POS, OSP) answer every triple-pattern access path. A Graph is not safe for
// concurrent mutation; concurrent readers are safe once loading is done.
type Graph struct {
	terms []Term
	ids   map[Term]ID

	spo map[ID]map[ID][]ID // subject -> predicate -> objects
	pos map[ID]map[ID][]ID // predicate -> object -> subjects
	osp map[ID]map[ID][]ID // object -> subject -> predicates

	size int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		ids: make(map[Term]ID),
		spo: make(map[ID]map[ID][]ID),
		pos: make(map[ID]map[ID][]ID),
		osp: make(map[ID]map[ID][]ID),
	}
}

// Len returns the number of distinct triples in the graph.
func (g *Graph) Len() int { return g.size }

// Intern returns the ID for t, assigning a fresh one if t is new.
func (g *Graph) Intern(t Term) ID {
	if id, ok := g.ids[t]; ok {
		return id
	}
	id := ID(len(g.terms))
	g.terms = append(g.terms, t)
	g.ids[t] = id
	return id
}

// Lookup returns the ID for t, or NoID if t has never been interned.
func (g *Graph) Lookup(t Term) ID {
	if id, ok := g.ids[t]; ok {
		return id
	}
	return NoID
}

// Add inserts the triple (s, p, o). Duplicate insertions are ignored.
// It reports whether the triple was newly added.
func (g *Graph) Add(s, p, o Term) bool {
	return g.AddIDs(g.Intern(s), g.Intern(p), g.Intern(o))
}

// AddTriple inserts t. Duplicate insertions are ignored.
func (g *Graph) AddTriple(t Triple) bool { return g.Add(t.S, t.P, t.O) }

// AddIDs inserts a triple given already-interned term IDs.
func (g *Graph) AddIDs(s, p, o ID) bool {
	ps := g.spo[s]
	if ps == nil {
		ps = make(map[ID][]ID)
		g.spo[s] = ps
	}
	objs := ps[p]
	for _, x := range objs {
		if x == o {
			return false
		}
	}
	ps[p] = append(objs, o)

	om := g.pos[p]
	if om == nil {
		om = make(map[ID][]ID)
		g.pos[p] = om
	}
	om[o] = append(om[o], s)

	sm := g.osp[o]
	if sm == nil {
		sm = make(map[ID][]ID)
		g.osp[o] = sm
	}
	sm[s] = append(sm[s], p)

	g.size++
	return true
}

// Has reports whether the triple (s, p, o) is present.
func (g *Graph) Has(s, p, o Term) bool {
	si, pi, oi := g.Lookup(s), g.Lookup(p), g.Lookup(o)
	if si == NoID || pi == NoID || oi == NoID {
		return false
	}
	for _, x := range g.spo[si][pi] {
		if x == oi {
			return true
		}
	}
	return false
}

// Match invokes fn for every triple matching the pattern. Zero-valued terms
// act as wildcards. Iteration stops early when fn returns false.
// Iteration order is deterministic for a given insertion sequence.
func (g *Graph) Match(s, p, o Term, fn func(Triple) bool) {
	g.MatchIDs(s, p, o, func(si, pi, oi ID) bool {
		return fn(Triple{g.terms[si], g.terms[pi], g.terms[oi]})
	})
}

// MatchIDs is Match over dictionary IDs, avoiding Term materialization.
func (g *Graph) MatchIDs(s, p, o Term, fn func(s, p, o ID) bool) {
	var si, pi, oi ID = NoID, NoID, NoID
	if !s.IsZero() {
		if si = g.Lookup(s); si == NoID {
			return
		}
	}
	if !p.IsZero() {
		if pi = g.Lookup(p); pi == NoID {
			return
		}
	}
	if !o.IsZero() {
		if oi = g.Lookup(o); oi == NoID {
			return
		}
	}
	g.matchIDs(si, pi, oi, fn)
}

// matchIDs dispatches on which positions are bound (NoID = wildcard).
func (g *Graph) matchIDs(si, pi, oi ID, fn func(s, p, o ID) bool) {
	switch {
	case si != NoID && pi != NoID && oi != NoID:
		for _, x := range g.spo[si][pi] {
			if x == oi {
				fn(si, pi, oi)
				return
			}
		}
	case si != NoID && pi != NoID:
		for _, x := range g.spo[si][pi] {
			if !fn(si, pi, x) {
				return
			}
		}
	case si != NoID && oi != NoID:
		for _, x := range g.osp[oi][si] {
			if !fn(si, x, oi) {
				return
			}
		}
	case pi != NoID && oi != NoID:
		for _, x := range g.pos[pi][oi] {
			if !fn(x, pi, oi) {
				return
			}
		}
	case si != NoID:
		for _, pk := range sortedKeys(g.spo[si]) {
			for _, x := range g.spo[si][pk] {
				if !fn(si, pk, x) {
					return
				}
			}
		}
	case pi != NoID:
		for _, ok := range sortedKeys(g.pos[pi]) {
			for _, x := range g.pos[pi][ok] {
				if !fn(x, pi, ok) {
					return
				}
			}
		}
	case oi != NoID:
		for _, sk := range sortedKeys(g.osp[oi]) {
			for _, x := range g.osp[oi][sk] {
				if !fn(sk, x, oi) {
					return
				}
			}
		}
	default:
		for _, sk := range sortedOuterKeys(g.spo) {
			for _, pk := range sortedKeys(g.spo[sk]) {
				for _, x := range g.spo[sk][pk] {
					if !fn(sk, pk, x) {
						return
					}
				}
			}
		}
	}
}

func sortedOuterKeys(m map[ID]map[ID][]ID) []ID {
	ks := make([]ID, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func sortedKeys(m map[ID][]ID) []ID {
	ks := make([]ID, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Count returns the number of triples matching the pattern (zero terms are
// wildcards). Used by the SPARQL planner for selectivity estimates.
func (g *Graph) Count(s, p, o Term) int {
	n := 0
	g.MatchIDs(s, p, o, func(_, _, _ ID) bool { n++; return true })
	return n
}

// Objects returns, in deterministic order, all o with (s, p, o) in g.
func (g *Graph) Objects(s, p Term) []Term {
	var out []Term
	g.Match(s, p, Term{}, func(t Triple) bool {
		out = append(out, t.O)
		return true
	})
	sortTerms(out)
	return out
}

// Object returns one object of (s, p, ·), or the zero Term when none exists.
func (g *Graph) Object(s, p Term) Term {
	var out Term
	g.Match(s, p, Term{}, func(t Triple) bool {
		out = t.O
		return false
	})
	return out
}

// Subjects returns, in deterministic order, all s with (s, p, o) in g.
func (g *Graph) Subjects(p, o Term) []Term {
	var out []Term
	g.Match(Term{}, p, o, func(t Triple) bool {
		out = append(out, t.S)
		return true
	})
	sortTerms(out)
	return out
}

// Triples returns all triples, sorted. Intended for tests and serialization.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.size)
	g.Match(Term{}, Term{}, Term{}, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func sortTerms(ts []Term) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}
