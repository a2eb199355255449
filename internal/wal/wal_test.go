package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/rdf"
)

// rec builds a distinguishable record.
func rec(i int) Record {
	return Record{
		Dataset: i % 3,
		URI:     rdf.NewIRI(fmt.Sprintf("http://example.org/obs/wal%d", i)),
		DimValues: []rdf.Term{
			rdf.NewIRI(fmt.Sprintf("http://example.org/code/area/A%d", i)),
			rdf.NewIRI("http://example.org/code/time/2011"),
		},
		MeasureValues: []rdf.Term{
			rdf.NewTypedLiteral(fmt.Sprintf("0.%02d", i), rdf.XSDDecimal),
			{}, // zero term round-trips too
		},
	}
}

func equalRecords(a, b Record) bool {
	if a.Register != b.Register || a.Dataset != b.Dataset || a.URI != b.URI ||
		len(a.DimValues) != len(b.DimValues) || len(a.MeasureValues) != len(b.MeasureValues) {
		return false
	}
	for i := range a.DimValues {
		if a.DimValues[i] != b.DimValues[i] {
			return false
		}
	}
	for i := range a.MeasureValues {
		if a.MeasureValues[i] != b.MeasureValues[i] {
			return false
		}
	}
	return true
}

func mustEqual(t *testing.T, got []Record, want []Record, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: replayed %d records, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if !equalRecords(got[i], want[i]) {
			t.Fatalf("%s: record %d differs: got %+v want %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestRoundTrip: append, reopen, replay — on both the in-memory and the
// real filesystem.
func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   faultfs.FS
		path string
	}{
		{"mem", faultfs.NewMemFS(), "log.wal"},
		{"os", faultfs.OS{}, t.TempDir() + "/log.wal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, recs, err := Open(tc.fs, tc.path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 0 {
				t.Fatalf("fresh log replayed %d records", len(recs))
			}
			var want []Record
			for i := 0; i < 7; i++ {
				r := rec(i)
				if err := w.Append(r); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				want = append(want, r)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, got, err := Open(tc.fs, tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			mustEqual(t, got, want, "reopen")
			if w2.RepairedBytes() != 0 {
				t.Fatalf("clean log reported %d repaired bytes", w2.RepairedBytes())
			}
		})
	}
}

// register builds a distinguishable dataset registration record.
func register(i int) Record {
	return Record{
		Register: true,
		Dataset:  10 + i,
		URI:      rdf.NewIRI(fmt.Sprintf("http://example.org/dataset/wal%d", i)),
		DimValues: []rdf.Term{
			rdf.NewIRI("http://example.org/dim/refArea"),
			rdf.NewIRI("http://example.org/dim/refPeriod"),
		},
		MeasureValues: []rdf.Term{rdf.NewIRI(fmt.Sprintf("http://example.org/measure/wal%d", i))},
	}
}

// TestRegistrationRecordRoundTrip: registrations (kind 2) interleaved
// with inserts reopen as written, kind included, through Append, through
// AppendBatch and through ParseFrames.
func TestRegistrationRecordRoundTrip(t *testing.T) {
	m := faultfs.NewMemFS()
	w, _, err := Open(m, "log.wal")
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{rec(0), register(0), rec(1)}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	batch := []Record{register(1), rec(2)}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	want = append(want, batch...)
	w.Close()
	_, got, err := Open(m, "log.wal")
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, want, "reopen")
	data, _ := m.ReadFile("log.wal")
	parsed, good, err := ParseFrames(data[HeaderLen:])
	if err != nil || good != int64(len(data))-HeaderLen {
		t.Fatalf("ParseFrames: %d of %d bytes, err %v", good, int64(len(data))-HeaderLen, err)
	}
	mustEqual(t, parsed, want, "ParseFrames")
}

// TestOpenUpgradesVersion1: a version-1 log (inserts only) replays as
// before, and Open rewrites it as version 2 — torn tail dropped — before
// anything is appended. A crash during the rewrite leaves the version-1
// file, which the next Open upgrades again.
func TestOpenUpgradesVersion1(t *testing.T) {
	m := faultfs.NewMemFS()
	w, _, err := Open(m, "log.wal")
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{rec(0), rec(1), rec(2)}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	v2, _ := m.ReadFile("log.wal")
	v1 := append(append([]byte(nil), v2...), 0x07, 0x00) // a torn tail
	v1[len(magic)-1] = 1

	put := func(data []byte) {
		f, _ := m.Create("log.wal")
		f.Write(data)
		f.Sync()
		f.Close()
	}
	put(v1)
	m.Inject(faultfs.Fault{Op: faultfs.OpRename, N: 1})
	if _, _, err := Open(m, "log.wal"); err == nil {
		t.Fatal("Open succeeded although the upgrade rewrite failed")
	}
	m.Inject(faultfs.Fault{})
	if data, _ := m.ReadFile("log.wal"); string(data) != string(v1) {
		t.Fatal("a failed upgrade changed the version-1 file")
	}

	w2, got, err := Open(m, "log.wal")
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, want, "version-1 replay")
	if w2.RepairedBytes() != 2 {
		t.Fatalf("upgrade reported %d repaired bytes, want the 2 torn ones", w2.RepairedBytes())
	}
	if data, _ := m.ReadFile("log.wal"); string(data) != string(v2) {
		t.Fatalf("upgraded file is not the version-2 log of the same records")
	}
	if err := w2.Append(register(0)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	m.Crash()
	_, got, err = Open(m, "log.wal")
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, append(want, register(0)), "after upgrade, append and power cut")
}

// TestTruncateAfterCheckpoint: records logged before Truncate are gone,
// later ones replay.
func TestTruncateAfterCheckpoint(t *testing.T) {
	m := faultfs.NewMemFS()
	w, _, err := Open(m, "log.wal")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if w.RecordBytes() != 0 {
		t.Fatalf("RecordBytes %d after truncate", w.RecordBytes())
	}
	var want []Record
	for i := 4; i < 6; i++ {
		r := rec(i)
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	w.Close()
	_, got, err := Open(m, "log.wal")
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, want, "after truncate")
}

// TestPowerCutEveryByteBoundary is the power-cut truncation sweep: a log
// with several appended records is cut at EVERY byte length from 0 to
// its full size; Open must never panic, and must replay exactly the
// records whose frames fit entirely within the kept prefix (each Append
// synced before returning, so every acked record's bytes survive a real
// crash — shorter cuts model losing unsynced bytes of a torn append).
func TestPowerCutEveryByteBoundary(t *testing.T) {
	base := faultfs.NewMemFS()
	w, _, err := Open(base, "log.wal")
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	var frameEnds []int64 // durable size after each append
	for i := 0; i < 5; i++ {
		r := rec(i)
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
		frameEnds = append(frameEnds, w.Size())
	}
	full := base.Len("log.wal")

	for cut := 0; cut <= full; cut++ {
		fsys := faultfs.NewMemFS()
		f, err := fsys.Create("log.wal")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := base.ReadFile("log.wal")
		if _, err := f.Write(data[:cut]); err != nil {
			t.Fatal(err)
		}
		f.Sync()
		f.Close()

		w2, got, err := Open(fsys, "log.wal")
		// How many complete records fit in the cut?
		wantN := 0
		for _, end := range frameEnds {
			if int64(cut) >= end {
				wantN++
			}
		}
		if cut < len(magic) {
			// Torn header: Open must recover by re-initializing.
			if err != nil {
				t.Fatalf("cut=%d (torn header): %v", cut, err)
			}
			if len(got) != 0 {
				t.Fatalf("cut=%d: torn header replayed %d records", cut, len(got))
			}
			w2.Close()
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		mustEqual(t, got, want[:wantN], fmt.Sprintf("cut=%d", cut))
		// The tail is repaired: appending works and survives a reopen.
		extra := rec(99)
		if err := w2.Append(extra); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		w2.Close()
		_, got3, err := Open(fsys, "log.wal")
		if err != nil {
			t.Fatalf("cut=%d: reopen after repair: %v", cut, err)
		}
		mustEqual(t, got3, append(append([]Record{}, want[:wantN]...), extra), fmt.Sprintf("cut=%d reopen", cut))
	}
}

// TestCorruptMiddleRecordStopsReplay: a bit flip inside an early record
// causes replay to stop there (prefix semantics), never to panic.
func TestCorruptMiddleRecordStopsReplay(t *testing.T) {
	base := faultfs.NewMemFS()
	w, _, _ := Open(base, "log.wal")
	var sizes []int64
	for i := 0; i < 4; i++ {
		if err := w.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, w.Size())
	}
	data, _ := base.ReadFile("log.wal")
	// Flip a byte inside record 1's frame.
	off := int(sizes[0]) + 6
	for _, mutant := range []byte{0x00, 0xFF, data[off] ^ 0x01} {
		if mutant == data[off] {
			continue
		}
		fsys := faultfs.NewMemFS()
		f, _ := fsys.Create("log.wal")
		cp := append([]byte(nil), data...)
		cp[off] = mutant
		f.Write(cp)
		f.Sync()
		f.Close()
		_, got, err := Open(fsys, "log.wal")
		if err != nil {
			t.Fatalf("flip->%#x: %v", mutant, err)
		}
		if len(got) != 1 {
			t.Fatalf("flip->%#x: replayed %d records, want 1", mutant, len(got))
		}
	}
}

// TestBadHeaderIsQuarantined: a log whose header is foreign bytes, or a
// version this binary does not know, is renamed aside with its bytes
// intact, Quarantined names where it went, and the fresh log in its place
// takes an append that a second Open replays. A rename that fails leaves
// the file in place and Open reports ErrCorrupt.
func TestBadHeaderIsQuarantined(t *testing.T) {
	for _, data := range [][]byte{
		[]byte("NOTAWAL\x01 and some records"),
		[]byte("XYZ"),
		{'R', 'D', 'F', 'C', 'W', 'A', 'L', 99}, // wrong version
	} {
		fsys := faultfs.NewMemFS()
		if err := faultfs.WriteFileAtomic(fsys, "log.wal", data); err != nil {
			t.Fatal(err)
		}
		w, recs, err := Open(fsys, "log.wal")
		if err != nil || len(recs) != 0 {
			t.Fatalf("header %q: %d records, err %v; want an empty log", data, len(recs), err)
		}
		if q := w.Quarantined(); q != "log.wal.corrupt" {
			t.Fatalf("header %q: Quarantined() = %q, want log.wal.corrupt", data, q)
		}
		if kept, err := fsys.ReadFile("log.wal.corrupt"); err != nil || !bytes.Equal(kept, data) {
			t.Fatalf("header %q: quarantined bytes %q (%v)", data, kept, err)
		}
		if err := w.Append(rec(1)); err != nil {
			t.Fatalf("header %q: append to the fresh log: %v", data, err)
		}
		w2, recs, err := Open(fsys, "log.wal")
		if err != nil {
			t.Fatalf("header %q: reopen: %v", data, err)
		}
		if len(recs) != 1 || !equalRecords(recs[0], rec(1)) || w2.Quarantined() != "" {
			t.Fatalf("header %q: reopen replayed %d records (quarantined %q); want the one appended", data, len(recs), w2.Quarantined())
		}
	}

	fsys := faultfs.NewMemFS()
	if err := faultfs.WriteFileAtomic(fsys, "log.wal", []byte("NOTAWAL!")); err != nil {
		t.Fatal(err)
	}
	fsys.Inject(faultfs.Fault{Op: faultfs.OpRename, N: 1})
	if _, _, err := Open(fsys, "log.wal"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rename fault: err %v, want ErrCorrupt", err)
	}
	if kept, err := fsys.ReadFile("log.wal"); err != nil || string(kept) != "NOTAWAL!" {
		t.Fatalf("rename fault moved or changed the log: %q (%v)", kept, err)
	}
}

// TestFaultSweepExactAckSemantics is the injected-failure sweep: a fixed
// append scenario runs with a fault scheduled at every operation index,
// for every fault kind (short write at several kept-byte counts, fsync
// error, truncate error). After each faulted run the log is reopened
// (optionally after a power cut) and must replay EXACTLY the appends
// that were acknowledged — no acked record lost, no failed record
// visible.
func TestFaultSweepExactAckSemantics(t *testing.T) {
	const appends = 5
	kinds := []faultfs.Fault{
		{Op: faultfs.OpWrite, Keep: 0},
		{Op: faultfs.OpWrite, Keep: 1},
		{Op: faultfs.OpWrite, Keep: 7},
		{Op: faultfs.OpWrite, Keep: 1 << 20}, // full write lands, error reported
		{Op: faultfs.OpSync},
		{Op: faultfs.OpTruncate},
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(fmt.Sprintf("%s-keep%d", kind.Op, kind.Keep), func(t *testing.T) {
			for n := int64(1); ; n++ {
				fsys := faultfs.NewMemFS()
				fault := kind
				fault.N = n
				fsys.Inject(fault)

				w, _, err := Open(fsys, "log.wal")
				if err != nil {
					// The fault hit Open itself (e.g. header sync); that is
					// a clean startup error, not data loss. Nothing acked.
					fsys.Inject(faultfs.Fault{})
					if _, got, rerr := Open(fsys, "log.wal"); rerr != nil || len(got) != 0 {
						t.Fatalf("n=%d: recovery after failed Open: %v (%d records)", n, rerr, len(got))
					}
					continue
				}
				var acked []Record
				for i := 0; i < appends; i++ {
					r := rec(i)
					if err := w.Append(r); err == nil {
						acked = append(acked, r)
					} else if errors.Is(err, ErrBroken) {
						break // repair failed; no further writes accepted
					}
				}
				tripped := fsys.Tripped()
				w.Close()

				// Recovery 1: process restart without power cut.
				fsys.Inject(faultfs.Fault{})
				_, got, err := Open(fsys, "log.wal")
				if err != nil {
					t.Fatalf("n=%d: reopen: %v", n, err)
				}
				mustEqual(t, got, acked, fmt.Sprintf("n=%d live-restart", n))

				// Recovery 2: power cut (unsynced bytes vanish), then restart.
				crashed := fsys.Clone()
				crashed.Crash()
				_, got2, err := Open(crashed, "log.wal")
				if err != nil {
					t.Fatalf("n=%d: reopen after crash: %v", n, err)
				}
				mustEqual(t, got2, acked, fmt.Sprintf("n=%d crash-restart", n))

				if !tripped {
					return // the schedule ran past the scenario: sweep done
				}
			}
		})
	}
}

// TestBrokenLogFailsFast: when the repair truncate also fails, the log
// reports ErrBroken for every later operation.
func TestBrokenLogFailsFast(t *testing.T) {
	fsys := faultfs.NewMemFS()
	w, _, err := Open(fsys, "log.wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	// Fail the next sync AND the repair truncate, persistently.
	fsys.Inject(faultfs.Fault{Op: faultfs.OpAny, N: 1, Persistent: true})
	if err := w.Append(rec(1)); err == nil {
		t.Fatal("append with dead disk succeeded")
	}
	if !w.Broken() {
		t.Fatal("log not marked broken after failed repair")
	}
	if err := w.Append(rec(2)); !errors.Is(err, ErrBroken) {
		t.Fatalf("append on broken log: %v", err)
	}
	if err := w.Truncate(); !errors.Is(err, ErrBroken) {
		t.Fatalf("truncate on broken log: %v", err)
	}
	// After a restart with a healthy disk, the acked record is intact.
	fsys.Inject(faultfs.Fault{})
	fsys.Crash()
	_, got, err := Open(fsys, "log.wal")
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, []Record{rec(0)}, "after broken+crash")
}
