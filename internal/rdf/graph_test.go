package rdf

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func iri(s string) Term { return NewIRI("http://t/" + s) }

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://a/b"), "<http://a/b>"},
		{NewBlank("x1"), "_:x1"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("hi", "en"), `"hi"@en`},
		{NewTypedLiteral("5", XSDInteger), `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewTypedLiteral("s", XSDString), `"s"`}, // xsd:string datatype elided
		{NewLiteral("a\"b\nc"), `"a\"b\nc"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestTermHelpers(t *testing.T) {
	if NewInteger(-42).Value != "-42" {
		t.Errorf("NewInteger")
	}
	if NewDecimal(0.25).Value != "0.25" {
		t.Errorf("NewDecimal: %q", NewDecimal(0.25).Value)
	}
	if NewIRI("http://x/y#frag").Local() != "frag" {
		t.Errorf("Local with fragment")
	}
	if NewIRI("http://x/path/leaf").Local() != "leaf" {
		t.Errorf("Local with path")
	}
	if NewLiteral("lit").Local() != "lit" {
		t.Errorf("Local of literal")
	}
	var zero Term
	if !zero.IsZero() || NewIRI("a").IsZero() {
		t.Errorf("IsZero")
	}
}

func TestTermCompareTotalOrder(t *testing.T) {
	terms := []Term{
		NewIRI("a"), NewIRI("b"), NewBlank("a"), NewLiteral("a"),
		NewTypedLiteral("a", XSDInteger), NewLangLiteral("a", "en"),
	}
	for _, a := range terms {
		if a.Compare(a) != 0 {
			t.Errorf("Compare(%v, same) != 0", a)
		}
		for _, b := range terms {
			if a.Compare(b) != -b.Compare(a) {
				t.Errorf("Compare not antisymmetric for %v, %v", a, b)
			}
		}
	}
}

func TestAddAndHas(t *testing.T) {
	g := NewGraph()
	if !g.Add(iri("s"), iri("p"), iri("o")) {
		t.Errorf("first Add must report true")
	}
	if g.Add(iri("s"), iri("p"), iri("o")) {
		t.Errorf("duplicate Add must report false")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
	if !g.Has(iri("s"), iri("p"), iri("o")) {
		t.Errorf("Has missing triple")
	}
	if g.Has(iri("s"), iri("p"), iri("x")) {
		t.Errorf("Has phantom triple")
	}
}

func TestMatchAllAccessPaths(t *testing.T) {
	g := NewGraph()
	g.Add(iri("a"), iri("p"), iri("x"))
	g.Add(iri("a"), iri("q"), iri("y"))
	g.Add(iri("b"), iri("p"), iri("x"))
	g.Add(iri("b"), iri("p"), iri("y"))

	count := func(s, p, o Term) int {
		n := 0
		g.Match(s, p, o, func(Triple) bool { n++; return true })
		return n
	}
	var zero Term
	if count(zero, zero, zero) != 4 {
		t.Errorf("SPO wildcard scan")
	}
	if count(iri("a"), zero, zero) != 2 {
		t.Errorf("S bound")
	}
	if count(zero, iri("p"), zero) != 3 {
		t.Errorf("P bound")
	}
	if count(zero, zero, iri("x")) != 2 {
		t.Errorf("O bound")
	}
	if count(iri("a"), iri("p"), zero) != 1 {
		t.Errorf("SP bound")
	}
	if count(iri("b"), zero, iri("y")) != 1 {
		t.Errorf("SO bound")
	}
	if count(zero, iri("p"), iri("x")) != 2 {
		t.Errorf("PO bound")
	}
	if count(iri("a"), iri("p"), iri("x")) != 1 {
		t.Errorf("fully bound")
	}
	if count(iri("zz"), zero, zero) != 0 {
		t.Errorf("unknown term short-circuits")
	}
}

func TestMatchEarlyStop(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.Add(iri("s"), iri("p"), NewInteger(int64(i)))
	}
	n := 0
	g.Match(iri("s"), iri("p"), Term{}, func(Triple) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop: visited %d", n)
	}
}

func TestObjectsSubjectsDeterministic(t *testing.T) {
	g := NewGraph()
	g.Add(iri("s"), iri("p"), iri("c"))
	g.Add(iri("s"), iri("p"), iri("a"))
	g.Add(iri("s"), iri("p"), iri("b"))
	objs := g.Objects(iri("s"), iri("p"))
	if len(objs) != 3 || objs[0].Local() != "a" || objs[2].Local() != "c" {
		t.Errorf("Objects not sorted: %v", objs)
	}
	subs := g.Subjects(iri("p"), iri("a"))
	if len(subs) != 1 || subs[0] != iri("s") {
		t.Errorf("Subjects: %v", subs)
	}
	if o := g.Object(iri("s"), iri("nope")); !o.IsZero() {
		t.Errorf("Object of absent predicate must be zero")
	}
}

func TestPredicatesAndTriplesSorted(t *testing.T) {
	g := NewGraph()
	g.Add(iri("s"), iri("q"), iri("o"))
	g.Add(iri("s"), iri("p"), iri("o"))
	ts := g.Triples()
	if len(ts) != 2 || ts[0].Compare(ts[1]) >= 0 {
		t.Errorf("Triples not sorted")
	}
	if !strings.HasSuffix(ts[0].String(), " .") {
		t.Errorf("triple rendering: %q", ts[0].String())
	}
}

func TestAddAllAndIntern(t *testing.T) {
	a := NewGraph()
	a.Add(iri("s"), iri("p"), iri("o"))
	id := a.Intern(iri("s"))
	if a.Intern(iri("s")) != id {
		t.Errorf("Intern not idempotent")
	}
	if a.Lookup(iri("s")) != id {
		t.Errorf("Lookup of an interned term")
	}
	if a.Lookup(iri("never")) != NoID {
		t.Errorf("Lookup unknown must be NoID")
	}
}

// TestQuickMatchAgainstNaive cross-checks every access path against a
// naive triple list on random graphs.
func TestQuickMatchAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		var all []Triple
		terms := make([]Term, 8)
		for i := range terms {
			terms[i] = NewInteger(int64(i))
		}
		for i := 0; i < 40; i++ {
			tr := Triple{terms[r.Intn(8)], terms[r.Intn(8)], terms[r.Intn(8)]}
			if g.AddTriple(tr) {
				all = append(all, tr)
			}
		}
		naive := func(s, p, o Term) int {
			n := 0
			for _, tr := range all {
				if (s.IsZero() || tr.S == s) && (p.IsZero() || tr.P == p) && (o.IsZero() || tr.O == o) {
					n++
				}
			}
			return n
		}
		var zero Term
		for trial := 0; trial < 20; trial++ {
			pick := func() Term {
				if r.Intn(2) == 0 {
					return zero
				}
				return terms[r.Intn(8)]
			}
			s, p, o := pick(), pick(), pick()
			if g.Count(s, p, o) != naive(s, p, o) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
