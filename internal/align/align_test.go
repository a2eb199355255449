package align

import (
	"testing"

	"rdfcube/internal/rdf"
)

func iri(ns, s string) rdf.Term { return rdf.NewIRI("http://" + ns + ".example/" + s) }

func TestLevenshteinSim(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"abc", "abc", 1},
		{"", "abc", 0},
		{"abc", "", 0},
		{"kitten", "sitting", 1 - 3.0/7.0},
		{"abcd", "abce", 0.75},
	}
	for _, c := range cases {
		if got := levenshteinSim(c.a, c.b); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("levenshteinSim(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCosineOnTrigrams(t *testing.T) {
	a := trigrams("athens")
	if cosineSim(a, a) < 0.999 {
		t.Errorf("self-similarity must be 1")
	}
	b := trigrams("xyzb")
	if cosineSim(a, b) > 0.3 {
		t.Errorf("unrelated strings must score low: %v", cosineSim(a, b))
	}
	if cosineSim(map[string]int{}, a) != 0 {
		t.Errorf("empty gram set")
	}
}

func TestMatchIdenticalLocals(t *testing.T) {
	source := []rdf.Term{iri("a", "Athens"), iri("a", "Rome")}
	target := []rdf.Term{iri("b", "Rome"), iri("b", "Athens"), iri("b", "Paris")}
	links := Match(source, target, Config{})
	if len(links) != 2 {
		t.Fatalf("links: %v", links)
	}
	for _, l := range links {
		if l.Source.Local() != l.Target.Local() {
			t.Errorf("mismatched link %v", l)
		}
		if l.Score < 0.999 {
			t.Errorf("identical locals must score 1: %v", l)
		}
	}
}

func TestMatchCaseFoldingAndVariants(t *testing.T) {
	source := []rdf.Term{iri("a", "ATHENS"), iri("a", "greece")}
	target := []rdf.Term{iri("b", "Athens"), iri("b", "Greece")}
	links := Match(source, target, Config{Threshold: 0.9})
	if len(links) != 2 {
		t.Fatalf("case-folded match failed: %v", links)
	}
	// With case folding disabled the cosine/levenshtein scores drop.
	links = Match(source, target, Config{Threshold: 0.9, DisableCaseFold: true})
	if len(links) != 0 {
		t.Errorf("unfolded exact threshold should reject: %v", links)
	}
}

func TestMatchThreshold(t *testing.T) {
	source := []rdf.Term{iri("a", "Athens")}
	target := []rdf.Term{iri("b", "Rome")}
	if links := Match(source, target, Config{Threshold: 0.8}); len(links) != 0 {
		t.Errorf("dissimilar pair matched: %v", links)
	}
	// A permissive threshold links the best available candidate.
	if links := Match(source, target, Config{Threshold: 0.01, Metric: Levenshtein}); len(links) != 1 {
		t.Errorf("permissive threshold must link: %v", links)
	}
}

func TestMatchMetrics(t *testing.T) {
	source := []rdf.Term{iri("a", "Rome_IT")}
	target := []rdf.Term{iri("b", "Rome"), iri("b", "Italy")}
	for _, metric := range []Metric{Cosine, Levenshtein, MaxCosineLevenshtein} {
		links := Match(source, target, Config{Metric: metric, Threshold: 0.3})
		if len(links) != 1 || links[0].Target.Local() != "Rome" {
			t.Errorf("%s: %v", metric, links)
		}
	}
}

func TestBestMatchIsUnique(t *testing.T) {
	// Each source yields at most one link even with several candidates
	// above threshold.
	source := []rdf.Term{iri("a", "Athens")}
	target := []rdf.Term{iri("b", "Athens"), iri("c", "Athens")}
	links := Match(source, target, Config{})
	if len(links) != 1 {
		t.Errorf("best-match must yield one link: %v", links)
	}
}
