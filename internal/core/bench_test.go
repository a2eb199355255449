package core_test

import (
	"testing"

	"rdfcube/internal/core"
	"rdfcube/internal/gen"
)

const benchSeed = 1

// TestSubsetTestLoopZeroAlloc is the gate on the hot path's invariant:
// the subset test allocates nothing, on every `go test`.
func TestSubsetTestLoopZeroAlloc(t *testing.T) {
	c := gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: benchSeed})
	s, err := core.NewSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	om := core.BuildOccurrenceMatrix(s)
	rows := om.Rows[:64]
	width := om.NumCols()
	sink := false
	allocs := testing.AllocsPerRun(10, func() {
		for x := range rows {
			for y := range rows {
				sink = rows[x].AndEqualsRange(rows[y], 0, width)
			}
		}
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("subset-test loop allocated %v times per run, must be 0", allocs)
	}
}

// BenchmarkExtensionIncrementalInsert prices one insert as the server
// pays it: the delta in inc.Res is emptied before each insert, as
// serve's applyInsertLocked does, and the space is rebuilt off the timer
// once every observation of extra has been inserted, so n stays in
// [1 000, 2 000) and no observation enters one space twice.
func BenchmarkExtensionIncrementalInsert(b *testing.B) {
	base := gen.RealWorld(gen.RealWorldConfig{TotalObs: 1000, Seed: benchSeed})
	extra := gen.RealWorld(gen.RealWorldConfig{TotalObs: 1000, Seed: benchSeed + 1}).Observations()
	var inc *core.Incremental
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(extra) == 0 {
			b.StopTimer()
			s, err := core.NewSpace(base)
			if err != nil {
				b.Fatal(err)
			}
			inc = core.NewIncremental(s, core.TaskAll)
			b.StartTimer()
		}
		d := inc.Res
		d.FullSet, d.PartialSet, d.ComplSet = d.FullSet[:0], d.PartialSet[:0], d.ComplSet[:0]
		if _, err := inc.Insert(extra[i%len(extra)]); err != nil {
			b.Fatal(err)
		}
	}
}
