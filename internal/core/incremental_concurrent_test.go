package core

import (
	"fmt"
	"sync"
	"testing"

	"rdfcube/internal/gen"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

// TestIncrementalConcurrentReaders pins the locking contract the serving
// layer relies on: Incremental itself is not synchronized, but a single
// writer excluded from many readers by an RWMutex is race-free. Run with
// -race this test fails if Insert ever mutates state a reader may touch
// outside the lock (e.g. background goroutines or lazy shared caches).
func TestIncrementalConcurrentReaders(t *testing.T) {
	s, err := NewSpace(gen.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(s, TaskAll)
	ds := s.Corpus.Datasets[2] // D3: refArea × refPeriod, unemployment

	var mu sync.RWMutex
	const readers = 8
	const inserts = 50

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.RLock()
				// Walk the structures a query handler reads: the sets,
				// the derived degrees, the space and a signature.
				n := inc.S.N()
				for _, p := range inc.Res.FullSet {
					_ = inc.S.Obs[p.A].URI
					_ = inc.S.Obs[p.B].URI
				}
				for _, p := range inc.Res.PartialSet {
					_ = inc.S.Degree(p.A, p.B)
				}
				_ = len(inc.Res.ComplSet)
				_ = inc.S.Signature(i % n)
				mu.RUnlock()
			}
		}()
	}

	for i := 0; i < inserts; i++ {
		o := &qb.Observation{
			URI:     rdf.NewIRI(fmt.Sprintf("%sobs/conc%d", gen.ExNS, i)),
			Dataset: ds,
			DimValues: []rdf.Term{
				gen.GeoAthens, gen.TimeJan,
			},
			MeasureValues: []rdf.Term{rdf.NewDecimal(0.1)},
		}
		mu.Lock()
		idx, err := inc.Insert(o)
		mu.Unlock()
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if idx != 10+i {
			t.Fatalf("insert %d: index %d, want %d", i, idx, 10+i)
		}
	}
	close(stop)
	wg.Wait()

	// Every inserted clone shares coordinates with its predecessors, so
	// the full-containment set must have grown.
	mu.RLock()
	defer mu.RUnlock()
	if inc.S.N() != 10+inserts {
		t.Fatalf("space has %d observations, want %d", inc.S.N(), 10+inserts)
	}
	if len(inc.Res.FullSet) == 0 {
		t.Fatal("no full containment pairs after inserting identical clones")
	}
}
