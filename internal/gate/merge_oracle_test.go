package gate

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
)

// The reflective merge the read path ran before merge.go scanned, sorted
// and appended: json.Unmarshal of each shard's /v1/related body into
// shardRelated, bool/degree maps to dedup, sort, response structs handed
// to encoding/json. It is kept here, test-only, as the oracle of the
// byte-identity tests (merge_diff_test.go) and as the decoded view of a
// gate answer the contract tests read.

// partialNeighbor is a partial-containment neighbor with its degree.
type partialNeighbor struct {
	URI    string  `json:"uri"`
	Degree float64 `json:"degree"`
}

// relatedResponse is the merged GET /v1/related answer.
type relatedResponse struct {
	URI                  string            `json:"uri"`
	Contains             []string          `json:"contains"`
	ContainedBy          []string          `json:"containedBy"`
	PartiallyContains    []partialNeighbor `json:"partiallyContains"`
	PartiallyContainedBy []partialNeighbor `json:"partiallyContainedBy"`
	Complements          []string          `json:"complements"`
	Partial              bool              `json:"partial"`
	MissingShards        []string          `json:"missingShards,omitempty"`
}

// containsResponse is the merged GET /v1/contains answer.
type containsResponse struct {
	URI           string   `json:"uri"`
	Contains      []string `json:"contains"`
	ContainedBy   []string `json:"containedBy"`
	Partial       bool     `json:"partial"`
	MissingShards []string `json:"missingShards,omitempty"`
}

// complementsResponse is the merged GET /v1/complements answer.
type complementsResponse struct {
	URI           string   `json:"uri"`
	Complements   []string `json:"complements"`
	Partial       bool     `json:"partial"`
	MissingShards []string `json:"missingShards,omitempty"`
}

// shardRef mirrors the shard-side obsRef / partialRef wire shape; the
// gate keeps the URI and degree and drops the shard-local index.
type shardRef struct {
	URI    string  `json:"uri"`
	Degree float64 `json:"degree"`
}

// shardRelated decodes a shard's /v1/related (superset of /v1/contains
// and /v1/complements) response.
type shardRelated struct {
	URI                  string     `json:"uri"`
	Contains             []shardRef `json:"contains"`
	ContainedBy          []shardRef `json:"containedBy"`
	PartiallyContains    []shardRef `json:"partiallyContains"`
	PartiallyContainedBy []shardRef `json:"partiallyContainedBy"`
	Complements          []shardRef `json:"complements"`
}

// mergeDegrees folds a shard's partial neighbors in, keeping the max
// degree on a duplicate URI.
func mergeDegrees(into map[string]float64, refs []shardRef) {
	for _, ref := range refs {
		if d, dup := into[ref.URI]; !dup || ref.Degree > d {
			into[ref.URI] = ref.Degree
		}
	}
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedDegrees(m map[string]float64) []partialNeighbor {
	out := make([]partialNeighbor, 0, len(m))
	for uri, deg := range m {
		out = append(out, partialNeighbor{URI: uri, Degree: deg})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URI < out[j].URI })
	return out
}

// oracleMerge is the body the reflective handlers wrote for route
// ("related", "contains" or "complements") given the /v1/related bodies of
// the shards that know the observation, in shard-map order, and the sorted
// names of the shards that did not answer.
func oracleMerge(t testing.TB, route string, bodies [][]byte, missing []string) []byte {
	t.Helper()
	contains := map[string]bool{}
	containedBy := map[string]bool{}
	complements := map[string]bool{}
	pContains := map[string]float64{}
	pContainedBy := map[string]float64{}
	var resp relatedResponse
	for _, body := range bodies {
		var sr shardRelated
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("oracle: undecodable related body: %v\n%s", err, body)
		}
		resp.URI = sr.URI
		for _, ref := range sr.Contains {
			contains[ref.URI] = true
		}
		for _, ref := range sr.ContainedBy {
			containedBy[ref.URI] = true
		}
		for _, ref := range sr.Complements {
			complements[ref.URI] = true
		}
		mergeDegrees(pContains, sr.PartiallyContains)
		mergeDegrees(pContainedBy, sr.PartiallyContainedBy)
	}
	resp.Contains = sortedKeys(contains)
	resp.ContainedBy = sortedKeys(containedBy)
	resp.Complements = sortedKeys(complements)
	resp.PartiallyContains = sortedDegrees(pContains)
	resp.PartiallyContainedBy = sortedDegrees(pContainedBy)
	resp.Partial = len(missing) > 0
	resp.MissingShards = missing

	var v any = resp
	switch route {
	case "contains":
		v = containsResponse{URI: resp.URI, Contains: resp.Contains, ContainedBy: resp.ContainedBy,
			Partial: resp.Partial, MissingShards: resp.MissingShards}
	case "complements":
		v = complementsResponse{URI: resp.URI, Complements: resp.Complements,
			Partial: resp.Partial, MissingShards: resp.MissingShards}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
