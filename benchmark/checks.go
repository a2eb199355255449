package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"rdfcube/internal/core"
	"rdfcube/internal/wal"
)

// Correctness checks. They run outside every timed phase; each failure
// counts in failed and makes the run exit non-zero. They are plain
// functions over answers so the tier-1 test can hand them a deliberately
// corrupted answer and watch them trip.

// counts is (|S_F|, |S_P|, |S_C|).
type counts struct{ full, partial, compl int }

func countsOf(r *core.Result) counts {
	f, p, c := r.Counts()
	return counts{f, p, c}
}

func (c counts) plus(d counts) counts {
	return counts{c.full + d.full, c.partial + d.partial, c.compl + d.compl}
}

// checkCounts compares two relationship-set sizes.
func checkCounts(what string, got, want counts) error {
	if got != want {
		return fmt.Errorf("%s: counts (full, partial, compl) = %+v, want %+v", what, got, want)
	}
	return nil
}

// fanout is the five neighbour-list sizes of one observation.
type fanout struct {
	Contains, ContainedBy, PartiallyContains, PartiallyContainedBy, Complements int
}

func (f fanout) neighbors() int {
	return f.Contains + f.ContainedBy + f.PartiallyContains + f.PartiallyContainedBy + f.Complements
}

// fanoutsOf derives the expected /v1/related list sizes of the sampled
// observations straight from the Result.
func fanoutsOf(res *core.Result, sample []int) map[int]fanout {
	want := make(map[int]fanout, len(sample))
	for _, i := range sample {
		want[i] = fanout{}
	}
	bump := func(i int, fn func(*fanout)) {
		if f, ok := want[i]; ok {
			fn(&f)
			want[i] = f
		}
	}
	for _, p := range res.FullSet {
		bump(p.A, func(f *fanout) { f.Contains++ })
		bump(p.B, func(f *fanout) { f.ContainedBy++ })
	}
	for _, p := range res.PartialSet {
		bump(p.A, func(f *fanout) { f.PartiallyContains++ })
		bump(p.B, func(f *fanout) { f.PartiallyContainedBy++ })
	}
	for _, p := range res.ComplSet {
		bump(p.A, func(f *fanout) { f.Complements++ })
		bump(p.B, func(f *fanout) { f.Complements++ })
	}
	return want
}

// relatedSizes decodes the list sizes of a /v1/related answer (shard or
// gate shape: both name the five lists alike).
func relatedSizes(body []byte) (fanout, error) {
	var r struct {
		Contains             []json.RawMessage `json:"contains"`
		ContainedBy          []json.RawMessage `json:"containedBy"`
		PartiallyContains    []json.RawMessage `json:"partiallyContains"`
		PartiallyContainedBy []json.RawMessage `json:"partiallyContainedBy"`
		Complements          []json.RawMessage `json:"complements"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fanout{}, err
	}
	return fanout{len(r.Contains), len(r.ContainedBy), len(r.PartiallyContains),
		len(r.PartiallyContainedBy), len(r.Complements)}, nil
}

// checkFanout compares one /v1/related answer with the Result-derived sizes.
func checkFanout(obs int, body []byte, want fanout) error {
	got, err := relatedSizes(body)
	if err != nil {
		return fmt.Errorf("related obs=%d: undecodable answer: %v", obs, err)
	}
	if got != want {
		return fmt.Errorf("related obs=%d: fan-out %+v, Result says %+v", obs, got, want)
	}
	return nil
}

// missingFromWAL lists acked insert URIs the reopened log does not hold.
// The log is read as wal.Open left it: nothing it fsynced is discarded.
func missingFromWAL(acked []string, recs []wal.Record) []string {
	have := make(map[string]struct{}, len(recs))
	for _, r := range recs {
		have[r.URI.Value] = struct{}{}
	}
	var missing []string
	for _, uri := range acked {
		if _, ok := have[uri]; !ok {
			missing = append(missing, uri)
		}
	}
	return missing
}

// insertAck is the 201 body of POST /v1/observations.
type insertAck struct {
	URI        string `json:"uri"`
	NewFull    int    `json:"newFull"`
	NewPartial int    `json:"newPartial"`
	NewCompl   int    `json:"newCompl"`
}

// statsCounts reads the relationship counts out of a /v1/stats answer.
func statsCounts(body []byte) (counts, int, error) {
	var s struct {
		Observations  int `json:"observations"`
		Full          int `json:"full"`
		Partial       int `json:"partial"`
		Complementary int `json:"complementary"`
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return counts{}, 0, err
	}
	return counts{s.Full, s.Partial, s.Complementary}, s.Observations, nil
}

// checkSameBytes insists a gate answer equals the unsharded oracle's.
func checkSameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: gate answer differs from the unsharded oracle:\n gate:   %.300s\n oracle: %.300s", what, got, want)
	}
	return nil
}
