package snapshot

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/lattice"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

var update = flag.Bool("update", false, "rewrite golden files")

func computeSnapshot(t *testing.T, corpus *qb.Corpus) *Snapshot {
	return computeSnapshotTasks(t, corpus, core.TaskAll)
}

func computeSnapshotTasks(t *testing.T, corpus *qb.Corpus, tasks core.Tasks) *Snapshot {
	t.Helper()
	s, res, err := core.ComputeCorpusCtx(context.Background(), corpus, core.AlgorithmCubeMasking, core.Options{Tasks: tasks})
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	return New(s, res, core.BuildLattice(s))
}

func roundTrip(t *testing.T, sn *Snapshot) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := sn.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return got
}

// checkEqual verifies the acceptance criterion: Read(Write(...)) reproduces
// identical relationship sets and observation metadata.
func checkEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if got.Space.N() != want.Space.N() {
		t.Fatalf("N: got %d, want %d", got.Space.N(), want.Space.N())
	}
	if got.Space.NumDims() != want.Space.NumDims() {
		t.Fatalf("NumDims: got %d, want %d", got.Space.NumDims(), want.Space.NumDims())
	}
	if got.Space.NumCols() != want.Space.NumCols() {
		t.Fatalf("NumCols: got %d, want %d", got.Space.NumCols(), want.Space.NumCols())
	}
	if !reflect.DeepEqual(got.Space.Dims, want.Space.Dims) {
		t.Fatalf("Dims differ")
	}
	if !reflect.DeepEqual(got.Space.Measures, want.Space.Measures) {
		t.Fatalf("Measures differ")
	}
	for i := 0; i < want.Space.N(); i++ {
		wo, go_ := want.Space.Obs[i], got.Space.Obs[i]
		if wo.URI != go_.URI {
			t.Fatalf("obs %d URI: got %s, want %s", i, go_.URI, wo.URI)
		}
		if wo.Dataset.URI != go_.Dataset.URI {
			t.Fatalf("obs %d dataset: got %s, want %s", i, go_.Dataset.URI, wo.Dataset.URI)
		}
		if !reflect.DeepEqual(wo.DimValues, go_.DimValues) {
			t.Fatalf("obs %d dim values differ", i)
		}
		if !reflect.DeepEqual(wo.MeasureValues, go_.MeasureValues) {
			t.Fatalf("obs %d measure values differ", i)
		}
		if want.Space.MeasureMask(i) != got.Space.MeasureMask(i) {
			t.Fatalf("obs %d measure mask differs", i)
		}
		for d := 0; d < want.Space.NumDims(); d++ {
			if want.Space.ValueIndex(i, d) != got.Space.ValueIndex(i, d) {
				t.Fatalf("obs %d dim %d value index differs", i, d)
			}
		}
	}
	if !reflect.DeepEqual(got.Result.FullSet, want.Result.FullSet) {
		t.Fatalf("FullSet: got %d pairs, want %d", len(got.Result.FullSet), len(want.Result.FullSet))
	}
	if !reflect.DeepEqual(got.Result.PartialSet, want.Result.PartialSet) {
		t.Fatalf("PartialSet: got %d pairs, want %d", len(got.Result.PartialSet), len(want.Result.PartialSet))
	}
	if !reflect.DeepEqual(got.Result.ComplSet, want.Result.ComplSet) {
		t.Fatalf("ComplSet: got %d pairs, want %d", len(got.Result.ComplSet), len(want.Result.ComplSet))
	}
	// Degrees are derived, so the decoded space must derive what the source
	// space does; neither Result holds a table of them.
	for _, p := range want.Result.PartialSet {
		if g, w := got.Space.Degree(p.A, p.B), want.Space.Degree(p.A, p.B); g != w {
			t.Fatalf("degree of pair %v: got %v, want %v", p, g, w)
		}
	}
	for _, res := range []*core.Result{got.Result, want.Result} {
		if res.PartialDegree != nil || res.PartialDims != nil {
			t.Fatalf("PartialDegree (%d entries) and PartialDims (%d entries) must stay nil", len(res.PartialDegree), len(res.PartialDims))
		}
	}
	// Read rebuilds the lattice from the space it decoded.
	if want.Lattice != nil {
		sameLattice(t, want.Lattice, got.Lattice)
	}
}

// sameLattice compares two lattices cube by cube: signature and members.
func sameLattice(t *testing.T, want, got *lattice.Lattice) {
	t.Helper()
	if got == nil {
		t.Fatal("no lattice")
	}
	wc, gc := want.Cubes(), got.Cubes()
	if len(wc) != len(gc) {
		t.Fatalf("lattice: got %d cubes, want %d", len(gc), len(wc))
	}
	for i := range wc {
		if !wc[i].Sig.Equal(gc[i].Sig) {
			t.Fatalf("cube %d signature differs", i)
		}
		if !reflect.DeepEqual(wc[i].Obs, gc[i].Obs) {
			t.Fatalf("cube %d members: got %v, want %v", i, gc[i].Obs, wc[i].Obs)
		}
	}
}

func TestRoundTripPaperExample(t *testing.T) {
	sn := computeSnapshot(t, gen.PaperExample())
	got := roundTrip(t, sn)
	checkEqual(t, sn, got)

	// The reconstructed space must also recompute to the same sets — the
	// snapshot is a cache, never a fork.
	res := core.NewResult()
	if err := core.Compute(got.Space, core.AlgorithmCubeMasking, core.Options{}, res); err != nil {
		t.Fatal(err)
	}
	res.Sort()
	if !reflect.DeepEqual(res.FullSet, sn.Result.FullSet) ||
		!reflect.DeepEqual(res.PartialSet, sn.Result.PartialSet) ||
		!reflect.DeepEqual(res.ComplSet, sn.Result.ComplSet) {
		t.Fatalf("recompute over reconstructed space diverges from persisted result")
	}
}

// TestRoundTripWithoutLattice: the lattice is derived, so Write ignores
// it — with or without one, the same state encodes to the same bytes — and
// Read hands back the lattice the space derives.
func TestRoundTripWithoutLattice(t *testing.T) {
	sn := computeSnapshot(t, gen.PaperExample())
	without, err := New(sn.Space, sn.Result, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	with, err := New(sn.Space, sn.Result, core.BuildLattice(sn.Space)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(without, with) {
		t.Fatalf("a lattice changes the encoding: %d bytes without, %d with", len(without), len(with))
	}
	got, err := Read(bytes.NewReader(without))
	if err != nil {
		t.Fatal(err)
	}
	checkEqual(t, sn, got)
}

// TestRoundTripSynthetic10k stresses the format at the acceptance-
// criterion scale. The dense synthetic workload's partial-containment
// set is quadratic (tens of millions of pairs at 10 k, minutes of pure
// set traversal), so the full-size run restricts itself to the full
// containment and complementarity tasks (~1.6 M pairs); the partial
// sections — degrees, dimension maps — are exercised at full task
// coverage by TestRoundTripSyntheticAllTasks and the other corpora.
func TestRoundTripSynthetic10k(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1500
	}
	sn := computeSnapshotTasks(t, gen.Synthetic(gen.SyntheticConfig{N: n, Seed: 7}), core.TaskFull|core.TaskCompl)
	got := roundTrip(t, sn)
	checkEqual(t, sn, got)
}

// TestRoundTripSyntheticAllTasks round-trips all three relationship sets
// (including the large partial-containment payload) at a size that keeps
// the dense workload's quadratic partial set tractable.
func TestRoundTripSyntheticAllTasks(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 600
	}
	sn := computeSnapshot(t, gen.Synthetic(gen.SyntheticConfig{N: n, Seed: 7}))
	got := roundTrip(t, sn)
	checkEqual(t, sn, got)
}

func TestRoundTripRealWorldMultiDataset(t *testing.T) {
	sn := computeSnapshot(t, gen.RealWorld(gen.RealWorldConfig{TotalObs: 400, Seed: 3}))
	got := roundTrip(t, sn)
	checkEqual(t, sn, got)
}

// TestRoundTripAfterInserts pins the interleaving property the service
// depends on: observations inserted into arbitrary datasets keep their
// Space.Obs indices across a write/read cycle, and the lattice Read
// rebuilds equals the one the inserts maintained.
func TestRoundTripAfterInserts(t *testing.T) {
	sn := computeSnapshot(t, gen.PaperExample())
	inc := core.NewIncrementalFrom(sn.Space, core.TaskAll, sn.Result, sn.Lattice)

	// Clone an early observation into the FIRST dataset: its index lands
	// at the end of Space.Obs even though its dataset is first.
	ds := sn.Space.Corpus.Datasets[0]
	src := ds.Observations[0]
	o := &qb.Observation{
		URI:           src.URI,
		Dataset:       ds,
		DimValues:     append([]rdf.Term{}, src.DimValues...),
		MeasureValues: append([]rdf.Term{}, src.MeasureValues...),
	}
	o.URI.Value += "-live"
	idx, err := inc.Insert(o)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if idx != sn.Space.N()-1 {
		t.Fatalf("insert index %d, want %d", idx, sn.Space.N()-1)
	}
	ds.Observations = append(ds.Observations, o)

	got := roundTrip(t, New(sn.Space, sn.Result, inc.Lattice()))
	if got.Space.Obs[idx].URI != o.URI {
		t.Fatalf("inserted observation moved: index %d holds %s", idx, got.Space.Obs[idx].URI)
	}
	checkEqual(t, New(sn.Space, sn.Result, inc.Lattice()), got)
}

// TestDeterministicEncoding: same state, same bytes — checkpoint diffing
// and golden files depend on it.
func TestDeterministicEncoding(t *testing.T) {
	sn := computeSnapshot(t, gen.RealWorld(gen.RealWorldConfig{TotalObs: 200, Seed: 5}))
	var a, b bytes.Buffer
	if err := sn.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := sn.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two encodings of the same snapshot differ")
	}
}

func TestGoldenPaperExample(t *testing.T) {
	sn := computeSnapshot(t, gen.PaperExample())
	var buf bytes.Buffer
	if err := sn.Write(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "paper_example.snap")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoding of the paper example drifted from the golden file (%d vs %d bytes); if the format changed intentionally, bump Version and run with -update",
			buf.Len(), len(want))
	}
	// The golden bytes must still decode to the live computation.
	got, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("decoding golden file: %v", err)
	}
	checkEqual(t, sn, got)
}

// TestWriteFileReadFile: a snapshot committed to disk through a Rotator
// loads back equal, and committing the loaded state again (the next
// checkpoint) keeps it loadable.
func TestWriteFileReadFile(t *testing.T) {
	sn := computeSnapshot(t, gen.PaperExample())
	rot := NewRotator(faultfs.OS{}, filepath.Join(t.TempDir(), "idx.bin"))
	commit := func(sn *Snapshot) {
		t.Helper()
		data, err := sn.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := rot.Write(data); err != nil {
			t.Fatalf("Rotator.Write: %v", err)
		}
	}
	commit(sn)
	got, _, err := rot.Load()
	if err != nil {
		t.Fatalf("Rotator.Load: %v", err)
	}
	checkEqual(t, sn, got)
	commit(got)
	if _, _, err := rot.Load(); err != nil {
		t.Fatalf("re-read after checkpoint: %v", err)
	}
}
