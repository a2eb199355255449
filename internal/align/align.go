// Package align is the reproduction's stand-in for LIMES, the link-
// discovery framework the paper uses to reconcile dimension values across
// datasets before relationship computation. Like the paper's
// configuration, it matches code-list URIs as literals — "based on the
// identifiers usually found in the suffix part of a URI" — with a cosine
// distance over character trigrams, optionally combined with a normalized
// Levenshtein distance.
//
// Alignment is orthogonal to the relationship algorithms (the paper
// assumes its output is perfect); the package exists so the federation
// example and the preprocessing pipeline are runnable end to end.
package align

import (
	"math"
	"sort"
	"strings"

	"rdfcube/internal/rdf"
)

// Metric selects the string distance used for matching.
type Metric string

// Supported metrics.
const (
	// Cosine is cosine similarity over character trigram multisets.
	Cosine Metric = "cosine"
	// Levenshtein is 1 − edit distance / max length.
	Levenshtein Metric = "levenshtein"
	// MaxCosineLevenshtein is max(cosine, levenshtein) — the combined
	// configuration the paper describes for LIMES.
	MaxCosineLevenshtein Metric = "max"
)

// Config parameterizes a matching run.
type Config struct {
	// Metric is the similarity function; default MaxCosineLevenshtein.
	Metric Metric
	// Threshold is the minimum similarity for a link; default 0.8.
	Threshold float64
	// CaseFold lowercases identifiers before comparison; default true
	// behaviour is applied unless DisableCaseFold is set.
	DisableCaseFold bool
}

func (c Config) withDefaults() Config {
	if c.Metric == "" {
		c.Metric = MaxCosineLevenshtein
	}
	if c.Threshold == 0 {
		c.Threshold = 0.8
	}
	return c
}

// Link is one discovered correspondence.
type Link struct {
	// Source and Target are the linked terms.
	Source, Target rdf.Term
	// Score is the similarity in [0, 1].
	Score float64
}

// Match links every source term to its best-scoring target term at or
// above the threshold. Results are sorted by source, then descending
// score. Each source yields at most one link (the LIMES "best match"
// acceptance condition).
func Match(source, target []rdf.Term, cfg Config) []Link {
	cfg = cfg.withDefaults()
	tNames := make([]string, len(target))
	tGrams := make([]map[string]int, len(target))
	for i, t := range target {
		tNames[i] = normalize(t, cfg)
		tGrams[i] = trigrams(tNames[i])
	}
	var out []Link
	for _, s := range source {
		sn := normalize(s, cfg)
		sg := trigrams(sn)
		best, bestScore := -1, 0.0
		for i := range target {
			var score float64
			switch cfg.Metric {
			case Cosine:
				score = cosineSim(sg, tGrams[i])
			case Levenshtein:
				score = levenshteinSim(sn, tNames[i])
			default:
				c := cosineSim(sg, tGrams[i])
				l := levenshteinSim(sn, tNames[i])
				if c > l {
					score = c
				} else {
					score = l
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best >= 0 && bestScore >= cfg.Threshold {
			out = append(out, Link{Source: s, Target: target[best], Score: bestScore})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Source.Compare(out[j].Source); c != 0 {
			return c < 0
		}
		return out[i].Score > out[j].Score
	})
	return out
}

func normalize(t rdf.Term, cfg Config) string {
	s := t.Local()
	if !cfg.DisableCaseFold {
		s = strings.ToLower(s)
	}
	return s
}

// trigrams returns the character-trigram multiset of s, padded so short
// identifiers still produce features.
func trigrams(s string) map[string]int {
	padded := "^^" + s + "$$"
	out := map[string]int{}
	for i := 0; i+3 <= len(padded); i++ {
		out[padded[i:i+3]]++
	}
	return out
}

func cosineSim(a, b map[string]int) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	dot, na, nb := 0, 0, 0
	for g, ca := range a {
		na += ca * ca
		if cb, ok := b[g]; ok {
			dot += ca * cb
		}
	}
	for _, cb := range b {
		nb += cb * cb
	}
	if dot == 0 {
		return 0
	}
	return float64(dot) / (math.Sqrt(float64(na)) * math.Sqrt(float64(nb)))
}

// levenshteinSim is 1 − dist/maxLen, with two-row dynamic programming.
func levenshteinSim(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if cur[j-1]+1 < m {
				m = cur[j-1] + 1
			}
			if prev[j-1]+cost < m {
				m = prev[j-1] + cost
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	dist := prev[lb]
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return 1 - float64(dist)/float64(maxLen)
}
