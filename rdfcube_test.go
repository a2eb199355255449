package rdfcube_test

import (
	"net/http"
	"os"
	"strings"
	"testing"

	rdfcube "rdfcube"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/snapshot"
)

func TestFacadeComputeOnExample(t *testing.T) {
	corpus := rdfcube.ExampleCorpus()
	for _, alg := range []rdfcube.Algorithm{rdfcube.Baseline, rdfcube.CubeMasking, rdfcube.CubeMaskingPrefetch, rdfcube.Parallel} {
		comp, err := rdfcube.Compute(corpus, alg, rdfcube.Options{})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if f, p, c := comp.Result.Counts(); f != 4 || p != 43 || c != 2 {
			t.Errorf("%s: counts (%d, %d, %d), want (4, 43, 2)", alg, f, p, c)
		}
	}
}

func TestFacadeTurtleRoundTrip(t *testing.T) {
	corpus := rdfcube.ExampleCorpus()
	ttl := rdfcube.ExportTurtle(corpus)
	corpus2, err := rdfcube.LoadTurtle(ttl)
	if err != nil {
		t.Fatalf("LoadTurtle: %v", err)
	}
	if corpus2.NumObservations() != corpus.NumObservations() {
		t.Errorf("observations %d → %d", corpus.NumObservations(), corpus2.NumObservations())
	}
	comp, err := rdfcube.Compute(corpus2, rdfcube.CubeMasking, rdfcube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f, _, c := comp.Result.Counts(); f != 4 || c != 2 {
		t.Errorf("relationships changed after round trip: %d full, %d compl", f, c)
	}
}

func TestFacadeExportRelationships(t *testing.T) {
	comp, err := rdfcube.Compute(rdfcube.ExampleCorpus(), rdfcube.CubeMasking, rdfcube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ttl := rdfcube.ExportRelationships(comp)
	for _, want := range []string{
		"qbr:contains", "qbr:complements", "qbr:partiallyContains", "qbr:containmentDegree",
	} {
		if !strings.Contains(ttl, want) {
			t.Errorf("export misses %s:\n%s", want, ttl)
		}
	}
}

func TestFacadeQuery(t *testing.T) {
	res, err := rdfcube.Query(rdfcube.ExampleCorpus(), `
PREFIX qb: <http://purl.org/linked-data/cube#>
SELECT ?o WHERE { ?o a qb:Observation }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 {
		t.Errorf("query found %d observations, want 10", res.Len())
	}
}

func TestFacadeTasksFiltering(t *testing.T) {
	comp, err := rdfcube.Compute(rdfcube.ExampleCorpus(), rdfcube.Baseline,
		rdfcube.Options{Tasks: rdfcube.TaskCompl})
	if err != nil {
		t.Fatal(err)
	}
	if f, p, c := comp.Result.Counts(); f != 0 || p != 0 || c != 2 {
		t.Errorf("TaskCompl: counts (%d, %d, %d)", f, p, c)
	}
}

func TestFacadeSkylineAndGenerators(t *testing.T) {
	corpus := rdfcube.GenerateRealWorld(300, 1)
	space, err := rdfcube.Compile(corpus)
	if err != nil {
		t.Fatal(err)
	}
	sky := rdfcube.Skyline(space)
	if len(sky) == 0 || len(sky) > space.N() {
		t.Errorf("skyline size %d of %d", len(sky), space.N())
	}
	kd := rdfcube.KDominantSkyline(space, space.NumDims())
	if len(kd) > space.N() {
		t.Errorf("k-dominant skyline too large")
	}

	syn := rdfcube.GenerateSynthetic(300, 1)
	if syn.NumObservations() != 300 {
		t.Errorf("synthetic size %d", syn.NumObservations())
	}
}

func TestFacadeObsResolution(t *testing.T) {
	comp, err := rdfcube.Compute(rdfcube.ExampleCorpus(), rdfcube.CubeMasking, rdfcube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range comp.Result.ComplSet {
		names[comp.Obs(p.A).URI.Local()+"~"+comp.Obs(p.B).URI.Local()] = true
	}
	if !names["o11~o31"] || !names["o13~o35"] {
		t.Errorf("complementary pairs wrong: %v", names)
	}
}

func TestFacadeUnknownAlgorithm(t *testing.T) {
	if _, err := rdfcube.Compute(rdfcube.ExampleCorpus(), rdfcube.Algorithm("nope"), rdfcube.Options{}); err == nil {
		t.Errorf("unknown algorithm must fail")
	}
}

func TestFacadeCSVPipeline(t *testing.T) {
	corpus := rdfcube.ExampleCorpus()
	hier := rdfcube.ExportTurtle(corpus)
	reg, err := rdfcube.LoadHierarchiesTurtle(hier)
	if err != nil {
		t.Fatalf("LoadHierarchiesTurtle: %v", err)
	}
	csv := "refArea,refPeriod,population\nGreece,Y2011,10800000\nAthens,Y2011,3090000\n"
	c2, err := rdfcube.LoadCSV(strings.NewReader(csv), reg, rdfcube.CSVOptions{})
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	comp, err := rdfcube.Compute(c2, rdfcube.CubeMasking, rdfcube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f, _, _ := comp.Result.Counts(); f != 1 {
		t.Errorf("expected 1 full containment pair from CSV pipeline, got %d", f)
	}
}

func TestFacadeIntegrity(t *testing.T) {
	vs, err := rdfcube.CheckIntegrity(rdfcube.ExampleCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("example corpus must be well-formed: %v", vs)
	}
}

func TestFacadeVocabulary(t *testing.T) {
	ttl := rdfcube.QBRVocabularyTurtle()
	for _, want := range []string{"qbr:contains", "owl:TransitiveProperty", "qbr:complements"} {
		if !strings.Contains(ttl, want) {
			t.Errorf("vocabulary misses %s", want)
		}
	}
	// The emitted vocabulary must itself be valid Turtle.
	if _, err := rdfcube.LoadTurtle(ttl); err == nil {
		t.Log("vocabulary parses as QB input (no datasets, expected error)") // LoadTurtle requires datasets
	}
}

func TestFacadeExplorationIndex(t *testing.T) {
	ix, err := rdfcube.BuildExplorationIndex(rdfcube.ExampleCorpus())
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.FullPairs != 4 || st.ComplPairs != 2 {
		t.Errorf("index stats: %+v", st)
	}
}

// TestEurostatSampleFixture loads the hand-written Eurostat-shaped Turtle
// fixture end to end: parse, validate, check integrity, compute
// relationships, and verify the expected cross-dataset structure.
func TestEurostatSampleFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/eurostat_sample.ttl")
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := rdfcube.LoadTurtle(string(data))
	if err != nil {
		t.Fatalf("LoadTurtle: %v", err)
	}
	if len(corpus.Datasets) != 2 || corpus.NumObservations() != 8 {
		t.Fatalf("fixture shape: %d datasets, %d observations",
			len(corpus.Datasets), corpus.NumObservations())
	}
	if err := corpus.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	vs, err := rdfcube.CheckIntegrity(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("integrity violations: %v", vs)
	}

	comp, err := rdfcube.Compute(corpus, rdfcube.CubeMasking, rdfcube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[string]bool{}
	for _, p := range comp.Result.FullSet {
		pairs[comp.Obs(p.A).URI.Local()+"→"+comp.Obs(p.B).URI.Local()] = true
	}
	// Within each dataset, the country-level 2015 rows contain their
	// regional 2015 rows: pop1 ⊃ pop2 and un1 ⊃ {un2, un3}.
	for _, want := range []string{"pop1→pop2", "un1→un2", "un1→un3"} {
		if !pairs[want] {
			t.Errorf("missing containment %s in %v", want, pairs)
		}
	}
	// Greece 2015 appears in both datasets with different measures:
	// complementary.
	compl := map[string]bool{}
	for _, p := range comp.Result.ComplSet {
		compl[comp.Obs(p.A).URI.Local()+"~"+comp.Obs(p.B).URI.Local()] = true
	}
	for _, want := range []string{"pop1~un1", "pop2~un2"} {
		if !compl[want] {
			t.Errorf("missing complementarity %s in %v", want, compl)
		}
	}
	// pop4 (Lazio 2014) and un4 (Italy 2014): partial containment from
	// un4 over pop4 is impossible (no shared measure); check instead that
	// the merged Figure-3-style table joins Greece 2015.
	rows := rdfcube.MergeComplements(comp)
	if len(rows) < 2 {
		t.Errorf("merged rows = %d", len(rows))
	}
}

// TestFacadeExportRelationshipsDeterministic pins the export's ordering
// contract: the same computation serialized with its result sets in any
// order must yield byte-identical Turtle (the pcN blank labels used to
// leak the algorithm's emission order).
func TestFacadeExportRelationshipsDeterministic(t *testing.T) {
	comp, err := rdfcube.Compute(rdfcube.ExampleCorpus(), rdfcube.CubeMasking, rdfcube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := rdfcube.ExportRelationships(comp)

	// Scramble every set in place (reverse + a deterministic swap walk).
	scramble := func(ps []rdfcube.Pair) {
		for i, j := 0, len(ps)-1; i < j; i, j = i+1, j-1 {
			ps[i], ps[j] = ps[j], ps[i]
		}
		for i := range ps {
			j := (i*7 + 3) % len(ps)
			ps[i], ps[j] = ps[j], ps[i]
		}
	}
	scramble(comp.Result.FullSet)
	scramble(comp.Result.PartialSet)
	scramble(comp.Result.ComplSet)

	if got := rdfcube.ExportRelationships(comp); got != want {
		t.Fatalf("export depends on result-set order:\n--- sorted ---\n%s\n--- scrambled ---\n%s", want, got)
	}

	// The export must not mutate the caller's slices as a side effect of
	// sorting: scrambled input stays scrambled.
	f0 := comp.Result.FullSet[0]
	if got := rdfcube.ExportRelationships(comp); got != want {
		t.Fatal("second export differs")
	}
	if comp.Result.FullSet[0] != f0 {
		t.Fatal("ExportRelationships mutated the result sets")
	}
}

// TestFacadeSnapshotServer drives the persistence + serving surface
// through the façade: a computation is snapshotted, read back from disk
// and served.
func TestFacadeSnapshotServer(t *testing.T) {
	comp, err := rdfcube.Compute(rdfcube.ExampleCorpus(), rdfcube.CubeMasking, rdfcube.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rdfcube.NewSnapshot(comp).Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	rot := snapshot.NewRotator(faultfs.OS{}, t.TempDir()+"/facade.snap")
	if err := rot.Write(data); err != nil {
		t.Fatalf("Rotator.Write: %v", err)
	}
	sn2, _, err := rot.Load()
	if err != nil {
		t.Fatalf("Rotator.Load: %v", err)
	}
	if sn2.Space.N() != comp.Space.N() {
		t.Fatalf("round trip lost observations: %d != %d", sn2.Space.N(), comp.Space.N())
	}
	srv, err := rdfcube.NewServer(sn2, rdfcube.ServerConfig{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	httpSrv, addr, err := rdfcube.StartServer("127.0.0.1:0", srv)
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer httpSrv.Close()
	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
}
