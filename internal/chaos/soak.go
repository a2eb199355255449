package chaos

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"testing"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/rdf"
	"rdfcube/internal/snapshot"
)

// Dimension values the single-primary worlds insert with: real hierarchy
// members, so new observations form containment chains with the paper
// corpus and with each other instead of being pairwise unrelated.
var (
	chaosAreas = []rdf.Term{
		gen.GeoAthens, gen.GeoIoannina, gen.GeoRome, gen.GeoAustin,
		gen.GeoGreece, gen.GeoItaly, gen.GeoUS,
	}
	chaosPeriods = []rdf.Term{gen.TimeJan, gen.TimeFeb, gen.Time2011}
)

// paperNode starts one node over the paper-example corpus, teaches the
// client to insert into its D3 dataset and read its first observation,
// and points traffic straight at it.
func (w *World) paperNode(name string) *node {
	w.t.Helper()
	n := w.node(name, gen.PaperExample())
	for _, area := range chaosAreas {
		for _, period := range chaosPeriods {
			w.templates = append(w.templates, insertTemplate{
				dataset:  gen.ExNS + "dataset/D3",
				dims:     map[string]string{gen.DimRefArea.Value: area.Value, gen.DimRefPeriod.Value: period.Value},
				measures: []string{gen.MeasUnemployment.Value},
			})
		}
	}
	w.sampled = []string{"0"}
	w.base.Store(n.url())
	return n
}

// verifyRecovered checks a restarted node: every acknowledged URI must
// answer, the server must not be degraded, and the image the node would
// checkpoint must equal, byte for byte, the encoding of a sorted
// cubeMasking batch run over the recovered space — the incrementally
// maintained sets kept recall 1 through the crash. It runs after traffic
// stopped, so nothing writes the state while it is read.
func (w *World) verifyRecovered(n *node, round int) {
	w.t.Helper()
	for _, uri := range w.ackedCopy() {
		code, _, err := w.fetchBody(n.url(), "/v1/contains?obs="+url.QueryEscape(uri))
		if err != nil || code != http.StatusOK {
			w.fatalf("round %d: acked observation %s lost: status %d err %v after restart", round, uri, code, err)
		}
	}
	var st struct {
		Degraded bool `json:"degraded"`
	}
	w.must(w.getJSON(n.url(), "/v1/stats", &st), fmt.Sprintf("round %d stats", round))
	if st.Degraded {
		w.fatalf("round %d: server degraded after a clean restart", round)
	}
	served, err := n.srv.EncodeSnapshot()
	w.must(err, fmt.Sprintf("round %d encode", round))
	held, err := snapshot.Read(bytes.NewReader(served))
	w.must(err, fmt.Sprintf("round %d decode", round))
	batch := core.NewResult()
	w.must(core.Compute(held.Space, core.AlgorithmCubeMasking, core.Options{Tasks: core.TaskAll}, batch),
		fmt.Sprintf("round %d batch compute", round))
	batch.Sort()
	want, err := snapshot.New(held.Space, batch, nil).Encode()
	w.must(err, fmt.Sprintf("round %d batch encode", round))
	if !bytes.Equal(served, want) {
		f, p, c := held.Result.Counts()
		bf, bp, bc := batch.Counts()
		w.fatalf("round %d: the served image drifted from the batch encode over the recovered space: %d/%d/%d full/partial/compl pairs held, %d/%d/%d computed",
			round, f, p, c, bf, bp, bc)
	}
}

// Soak runs rounds of concurrent inserts and reads against
// one node while WAL faults fire and checkpoints race mid-round, then
// kills it — a power cut on even rounds, a graceful stop on odd ones —
// restarts it from snapshot + WAL replay, and checks what the durability
// layer promises: every acknowledged insert is still queryable, the
// server is not degraded, the incremental pair sets equal a batch run, and
// traffic during faults was only ever answered with the documented
// statuses (201/409/429/503 to inserts, 200/429/503 to reads), never a
// hang.
func Soak(t testing.TB, opt Options) {
	t.Helper()
	w := New(t, opt)
	defer w.Close()
	n := w.paperNode("node")
	faults := 0
	for round := 0; round < opt.rounds(); round++ {
		w.traffic(round, op{60, w.insertOnce}, op{33, w.readOnce}, op{7, pause})
		// The controller: sleep in slices, firing a fault or a checkpoint
		// at random points of the round.
		for deadline := time.Now().Add(opt.round()); time.Now().Before(deadline); {
			time.Sleep(opt.round() / 8)
			switch w.rng.IntN(4) {
			case 0: // the next fsync on any file fails
				n.mem.Inject(faultfs.Fault{Op: faultfs.OpSync, N: 1})
				faults++
			case 1: // the next write fails
				n.mem.Inject(faultfs.Fault{Op: faultfs.OpWrite, N: 1})
				faults++
			case 2: // a checkpoint racing live inserts
				if err := n.srv.CheckpointWithin(2*time.Second, n.rot.Write); err != nil {
					w.logf("chaos: mid-round checkpoint failed (tolerated): %v", err)
				}
			}
		}
		w.stopTraffic(fmt.Sprintf("round %d", round))

		graceful := round%2 == 1
		n.stop(graceful)
		w.must(n.start(), fmt.Sprintf("round %d restart", round))
		w.logf("chaos: round %d done (graceful=%v): %d acked so far, %d faults injected", round, graceful, len(w.ackedCopy()), faults)
		w.verifyRecovered(n, round)
	}
	if len(w.ackedCopy()) == 0 {
		w.fatalf("soak made no successful inserts; the harness exercised nothing")
	}
	w.logf("chaos: soak complete: %v, %d faults, %d restarts", w, faults, opt.rounds())
}
