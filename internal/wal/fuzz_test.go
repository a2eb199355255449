package wal

import (
	"bytes"
	"testing"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/rdf"
)

// validLogBytes builds a well-formed log with n records through the real
// append path on an in-memory filesystem.
func validLogBytes(f *testing.F, n int) []byte {
	fsys := faultfs.NewMemFS()
	w, _, err := Open(fsys, "seed.wal")
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append(rec(i)); err != nil {
			f.Fatal(err)
		}
	}
	data, err := fsys.ReadFile("seed.wal")
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzOpenWAL feeds arbitrary bytes to the log-recovery path as the
// on-disk state left by "a crash". The durability contract under test:
//
//   - Open never panics, whatever the file contains.
//   - Open either quarantines the file (damaged header) with its bytes
//     intact and returns an empty, usable log, or returns a usable log
//     over the accepted prefix: torn/garbled tails are silently repaired.
//   - A log Open accepted must actually be usable — an Append must
//     succeed and a second Open must replay exactly the accepted records
//     plus the appended one (recovery is idempotent and append-stable).
//
// Seeds: valid logs of several lengths, truncations at every byte over
// the header and frame boundaries, bit flips (header, length prefix,
// payload, CRC), foreign data, a log with a registration record, and a
// version-1 log.
func FuzzOpenWAL(f *testing.F) {
	golden := validLogBytes(f, 5)
	f.Add(golden)
	for cut := 0; cut <= len(golden) && cut < 96; cut++ {
		f.Add(golden[:cut])
	}
	for cut := 96; cut < len(golden); cut += 13 {
		f.Add(golden[:cut])
	}
	for pos := 0; pos < len(golden); pos += 5 {
		mut := append([]byte(nil), golden...)
		mut[pos] ^= 0x40
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("not a wal at all"))
	f.Add(validLogBytes(f, 0))
	f.Add(append(golden, 0xde, 0xad, 0xbe, 0xef))
	// A log holding a registration (kind 2), and a version-1 log.
	withReg := validLogBytes(f, 2)
	fsys := faultfs.NewMemFS()
	if w, _, err := Open(fsys, "reg.wal"); err != nil || w.Append(Record{Register: true, Dataset: 3, URI: rdf.NewIRI("http://example.org/dataset/fuzz")}) != nil {
		f.Fatal("building the registration seed")
	}
	reg, _ := fsys.ReadFile("reg.wal")
	f.Add(append(withReg, reg[HeaderLen:]...))
	v1 := append([]byte(nil), golden...)
	v1[HeaderLen-1] = 1
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := faultfs.NewMemFS()
		if len(data) > 0 {
			w, err := fsys.Create("fuzz.wal")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}

		log, recs, err := Open(fsys, "fuzz.wal")
		if err != nil {
			t.Fatalf("Open refused the file instead of repairing or quarantining it: %v", err)
		}
		if q := log.Quarantined(); q != "" {
			kept, err := fsys.ReadFile(q)
			if err != nil || !bytes.Equal(kept, data) || len(recs) != 0 {
				t.Fatalf("quarantine to %q kept %d of %d bytes intact (%v) and replayed %d records; want all bytes and none",
					q, len(kept), len(data), err, len(recs))
			}
		}

		// The accepted log must be append-ready despite whatever tail
		// repair just happened.
		extra := Record{
			Dataset:       1,
			URI:           rdf.NewIRI("http://example.org/obs/fuzz-extra"),
			DimValues:     []rdf.Term{rdf.NewIRI("http://example.org/code/area/AF")},
			MeasureValues: []rdf.Term{rdf.NewTypedLiteral("1.0", rdf.XSDDecimal)},
		}
		if err := log.Append(extra); err != nil {
			t.Fatalf("Append after accepted Open failed: %v", err)
		}

		// Recovery is stable: a second Open replays the accepted prefix
		// plus the new record, in order.
		_, recs2, err := Open(fsys, "fuzz.wal")
		if err != nil {
			t.Fatalf("reopen after repair+append failed: %v", err)
		}
		if len(recs2) != len(recs)+1 {
			t.Fatalf("reopen replayed %d records, want %d", len(recs2), len(recs)+1)
		}
		for i := range recs {
			if !equalRecords(recs2[i], recs[i]) {
				t.Fatalf("record %d changed across reopen", i)
			}
		}
		if !equalRecords(recs2[len(recs)], extra) {
			t.Fatalf("appended record did not survive reopen")
		}
	})
}
