package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeSnapshot throws arbitrary bytes at the binary snapshot
// decoder. The contract under test is the one rotate.go's quarantine
// logic and the daemon's startup path rely on: Read either returns a
// structurally valid snapshot or an error wrapping ErrCorrupt — it never
// panics, never hangs on huge declared lengths, and never silently
// accepts a damaged stream as a different-but-valid one (the latter is
// approximated by re-encoding accepted inputs and checking they decode
// to the same byte stream).
//
// The corpus is seeded from the golden paper-example snapshot in both
// formats the reader accepts (version 2, and version 1 with its stored
// degrees and LATT section) plus systematic damage to each: truncations
// at every section boundary granularity, single-bit flips across the
// header and early payload, and a few adversarial length prefixes.
func FuzzDecodeSnapshot(f *testing.F) {
	golden := readFile(f, "testdata/paper_example.snap")
	for _, snap := range [][]byte{golden, readFile(f, v1Fixture)} {
		f.Add(snap)
		// Truncations: dense over the 12-byte header and the first section
		// frame, then coarse steps through the body. (Keep the seed corpus
		// small: every seed is re-executed for baseline coverage before
		// fuzzing proper starts, so hundreds of seeds eat the smoke budget.)
		for cut := 0; cut < len(snap) && cut < 24; cut += 3 {
			f.Add(snap[:cut])
		}
		for cut := 24; cut < len(snap); cut += 199 {
			f.Add(snap[:cut])
		}
		// Bit flips through the header and the first sections.
		for pos := 0; pos < len(snap) && pos < 256; pos += 29 {
			for _, bit := range []byte{0x01, 0x80} {
				mut := append([]byte(nil), snap...)
				mut[pos] ^= bit
				f.Add(mut)
			}
		}
	}
	// Adversarial declared lengths: a section claiming a huge payload.
	huge := append([]byte(nil), golden[:12]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	f.Add(huge)
	f.Add([]byte{})
	f.Add([]byte("RDFCSNAP"))
	// The same example as older builds wrote it, with a dimension list per
	// partial pair, and two copies whose lists lie under valid CRCs.
	old, badIndex, badLength := damagedDimsFixtures(f)
	f.Add(old)
	f.Add(badIndex)
	f.Add(badLength)
	// A version 1 degree inside (0, 1) that is not the one the space
	// derives; a version 2 S_P pair that derives 0 or 1; a version 1 LATT
	// that leaves out an observation.
	wrongDegree, _ := withFirstDegree(f, 0.5)
	f.Add(wrongDegree)
	notPartial, _, _ := withFirstPartialNotPartial(f)
	f.Add(notPartial)
	shortLatt, _ := withoutFirstCubeMember(f)
	f.Add(shortLatt)

	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error must wrap ErrCorrupt, got %v", err)
			}
			return
		}
		// Accepted input: it must round-trip — re-encoding the decoded
		// snapshot and decoding again yields identical bytes, so the
		// decoder cannot have invented state from junk.
		enc, err := sn.Encode()
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		sn2, err := Read(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v", err)
		}
		enc2, err := sn2.Encode()
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("accepted snapshot does not round-trip stably")
		}
	})
}
