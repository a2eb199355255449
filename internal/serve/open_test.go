package serve

import (
	"bytes"
	"errors"
	"io/fs"
	"slices"
	"testing"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/rdf"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
)

// TestOpenRecovery is the boot table: each row lays out a disk — a
// snapshot generation or none, a log with records, a torn tail or a
// garbage header, a rename fault — and checks the Recovery Open reports,
// or the error it stops with and that it built no server.
func TestOpenRecovery(t *testing.T) {
	snap := paperSnapshotBytes(t)
	sn := decodeSnapshot(t, snap)
	o := sn.Space.Obs[0]
	fresh := wal.Record{
		Dataset:       slices.Index(sn.Space.Corpus.Datasets, o.Dataset),
		URI:           rdf.NewIRI(gen.ExNS + "obs/open-fresh"),
		DimValues:     o.DimValues,
		MeasureValues: o.MeasureValues,
	}
	held := fresh
	held.URI = o.URI
	register := wal.Record{
		Register:      true,
		Dataset:       len(sn.Space.Corpus.Datasets),
		URI:           rdf.NewIRI(gen.ExNS + "dataset/D-open"),
		DimValues:     []rdf.Term{gen.DimRefArea, gen.DimRefPeriod},
		MeasureValues: []rdf.Term{gen.MeasUnemployment},
	}
	garbage := []byte("not a write-ahead log")
	torn := []byte{9, 0, 0, 0, 1, 2} // a length prefix and two of its nine payload bytes
	const gen1 = "idx.bin.000001"

	rows := []struct {
		name       string
		noSnapshot bool
		logged     []wal.Record // appended to the log through wal
		tail       []byte       // raw bytes appended after them
		header     []byte       // when set, the whole log file instead
		renameErr  bool         // the next rename fails
		want       Recovery
		wantErr    error
	}{
		{name: "empty directory", noSnapshot: true, wantErr: fs.ErrNotExist},
		{name: "torn tail", logged: []wal.Record{fresh}, tail: torn,
			want: Recovery{Snapshot: gen1, TornBytes: int64(len(torn)), Replayed: 1}},
		{name: "garbage header", header: garbage,
			want: Recovery{Snapshot: gen1, QuarantinedWAL: "cube.wal.corrupt"}},
		{name: "records the snapshot holds", logged: []wal.Record{held, fresh},
			want: Recovery{Snapshot: gen1, Replayed: 1, Skipped: 1}},
		{name: "registration record", logged: []wal.Record{register},
			want: Recovery{Snapshot: gen1, Replayed: 1}},
		{name: "rename fault during quarantine", header: garbage, renameErr: true,
			want: Recovery{Snapshot: gen1}, wantErr: wal.ErrCorrupt},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m := faultfs.NewMemFS()
			rot := snapshot.NewRotator(m, "idx.bin")
			if !row.noSnapshot {
				if err := rot.Write(snap); err != nil {
					t.Fatal(err)
				}
			}
			if row.header != nil {
				if err := faultfs.WriteFileAtomic(m, "cube.wal", row.header); err != nil {
					t.Fatal(err)
				}
			} else if row.logged != nil {
				w, _, err := wal.Open(m, "cube.wal")
				if err != nil {
					t.Fatal(err)
				}
				if err := w.AppendBatch(row.logged); err != nil {
					t.Fatal(err)
				}
				w.Close()
			}
			if row.tail != nil {
				f, err := m.OpenAppend("cube.wal")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(row.tail); err != nil {
					t.Fatal(err)
				}
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if row.renameErr {
				m.Inject(faultfs.Fault{Op: faultfs.OpRename, N: 1})
			}

			srv, rec, err := Open(rot, "cube.wal", Config{})
			if rec != row.want {
				t.Fatalf("Recovery %+v, want %+v", rec, row.want)
			}
			if row.wantErr != nil {
				if !errors.Is(err, row.wantErr) || srv != nil {
					t.Fatalf("err %v, server %v; want an error wrapping %v and no server", err, srv != nil, row.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer srv.WAL().Close()
			if row.header != nil {
				if kept, err := m.ReadFile(rec.QuarantinedWAL); err != nil || !bytes.Equal(kept, row.header) {
					t.Fatalf("quarantined log holds %q (%v), want %q", kept, err, row.header)
				}
			}
			for _, r := range row.logged {
				srv.mu.RLock()
				_, obs := srv.uriIdx[r.URI.Value]
				_, ds := srv.dsIdx[r.URI.Value]
				srv.mu.RUnlock()
				if !obs && !ds {
					t.Fatalf("logged %s is not served after Open", r.URI.Value)
				}
			}
		})
	}
}
