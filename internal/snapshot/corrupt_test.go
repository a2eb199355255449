package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

// validBytes returns one valid encoded snapshot for mutation testing.
func validBytes(t *testing.T) []byte {
	t.Helper()
	sn := computeSnapshot(t, gen.PaperExample())
	var buf bytes.Buffer
	if err := sn.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTruncationNeverPanics: Read of a prefix of any length must return an
// error (never panic, never succeed — a strict prefix is always missing at
// least the END terminator).
func TestTruncationNeverPanics(t *testing.T) {
	data := validBytes(t)
	for n := 0; n < len(data); n++ {
		sn, err := Read(bytes.NewReader(data[:n]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully (%v)", n, len(data), sn)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v is not ErrCorrupt", n, err)
		}
	}
}

// TestBitFlipsNeverPanic flips every byte of the stream (each to several
// values) and requires Read to survive without panicking. Almost every
// flip must be caught — by the magic check, the version check, the section
// framing or the CRC — so a successful decode is also reported.
func TestBitFlipsNeverPanic(t *testing.T) {
	data := validBytes(t)
	mutants := []byte{0x00, 0xFF, 0x01, 0x80}
	for off := 0; off < len(data); off++ {
		for _, m := range mutants {
			if data[off] == m {
				continue
			}
			cp := append([]byte{}, data...)
			cp[off] = m
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic decoding flip at offset %d -> %#x: %v", off, m, r)
					}
				}()
				_, err := Read(bytes.NewReader(cp))
				if err == nil {
					t.Fatalf("flip at offset %d -> %#x decoded without error", off, m)
				}
			}()
		}
	}
}

// TestGarbageInputs throws structured garbage at Read.
func TestGarbageInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"short magic":     []byte("RDFC"),
		"wrong magic":     []byte("NOTASNAP\x01\x00\x00\x00"),
		"bad version":     []byte("RDFCSNAP\x63\x00\x00\x00"),
		"header only":     []byte("RDFCSNAP\x01\x00\x00\x00"),
		"random noise":    bytes.Repeat([]byte{0xA5, 0x5A, 0x3C}, 400),
		"huge section":    append([]byte("RDFCSNAP\x01\x00\x00\x00TERM\xff\xff\xff\xff"), bytes.Repeat([]byte{1}, 64)...),
		"wrong first tag": append([]byte("RDFCSNAP\x01\x00\x00\x00DIMS\x00\x00\x00\x00"), []byte{0, 0, 0, 0}...),
	}
	// A valid body under any version but 1 and 2 is refused by the header.
	for _, v := range []uint32{0, 3} {
		data := validBytes(t)
		binary.LittleEndian.PutUint32(data[8:], v)
		cases[fmt.Sprintf("version %d", v)] = data
	}
	for name, in := range cases {
		if _, err := Read(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not ErrCorrupt", name, err)
		}
	}
}

// TestTrailingGarbage: bytes after the END section are rejected.
func TestTrailingGarbage(t *testing.T) {
	data := append(validBytes(t), 0xFF)
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatalf("trailing garbage accepted")
	}
}

// TestRotationArtifactCorpus extends the corruption corpus to the
// generation-rotation artifacts: stale CURRENT pointers, missing
// generation files, corrupt generations with and without readable
// fallbacks. Every case must resolve without a panic, falling back in
// head → previous-generation → legacy order, or yield a clean error.
func TestRotationArtifactCorpus(t *testing.T) {
	valid := validBytes(t)
	bad := append([]byte(nil), valid...)
	bad[len(bad)/3] ^= 0x5A

	cases := []struct {
		name     string
		files    map[string][]byte
		wantFrom string // "" means Load must fail
		notExist bool   // Load failure must wrap fs.ErrNotExist
	}{
		{
			name: "stale CURRENT pointing at missing generation",
			files: map[string][]byte{
				"idx.bin.000001":  valid,
				"idx.bin.CURRENT": []byte("idx.bin.000007\n"),
			},
			wantFrom: "idx.bin.000001",
		},
		{
			name: "garbage CURRENT falls back to newest generation",
			files: map[string][]byte{
				"idx.bin.000001":  valid,
				"idx.bin.000002":  valid,
				"idx.bin.CURRENT": []byte("../../etc/passwd"),
			},
			wantFrom: "idx.bin.000002",
		},
		{
			name: "missing generation file entirely, legacy fallback",
			files: map[string][]byte{
				"idx.bin":         valid,
				"idx.bin.CURRENT": []byte("idx.bin.000003\n"),
			},
			wantFrom: "idx.bin",
		},
		{
			name: "corrupt head falls back to previous generation",
			files: map[string][]byte{
				"idx.bin.000001":  valid,
				"idx.bin.000002":  bad,
				"idx.bin.CURRENT": []byte("idx.bin.000002\n"),
			},
			wantFrom: "idx.bin.000001",
		},
		{
			name: "both generations corrupt: clean error",
			files: map[string][]byte{
				"idx.bin.000001":  bad,
				"idx.bin.000002":  bad,
				"idx.bin.CURRENT": []byte("idx.bin.000002\n"),
			},
		},
		{
			name: "corrupt generations but readable legacy file",
			files: map[string][]byte{
				"idx.bin":         valid,
				"idx.bin.000001":  bad,
				"idx.bin.CURRENT": []byte("idx.bin.000001\n"),
			},
			wantFrom: "idx.bin",
		},
		{
			name: "truncated generation (crash mid-write without rename)",
			files: map[string][]byte{
				"idx.bin.000001":     valid,
				"idx.bin.000002.tmp": valid[:len(valid)/2],
				"idx.bin.CURRENT":    []byte("idx.bin.000001\n"),
			},
			wantFrom: "idx.bin.000001",
		},
		{
			name:     "nothing at all",
			files:    map[string][]byte{},
			notExist: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := faultfs.NewMemFS()
			for name, content := range tc.files {
				f, err := m.Create(name)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(content); err != nil {
					t.Fatal(err)
				}
				f.Sync()
				f.Close()
			}
			r := NewRotator(m, "idx.bin")
			var logged []string
			r.Logf = func(format string, a ...any) {
				logged = append(logged, format)
			}
			sn, from, err := r.Load()
			if tc.wantFrom == "" {
				if err == nil {
					t.Fatalf("Load succeeded from %s, want failure", from)
				}
				if tc.notExist {
					if !errors.Is(err, fs.ErrNotExist) {
						t.Fatalf("err = %v, want fs.ErrNotExist", err)
					}
				} else if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if from != tc.wantFrom {
				t.Fatalf("loaded from %s, want %s", from, tc.wantFrom)
			}
			if sn.Space.N() != 10 {
				t.Fatalf("snapshot has %d observations", sn.Space.N())
			}
			_ = logged
		})
	}
}

// TestRotationQuarantineKeepsEvidence: falling back quarantines the
// corrupt candidates it skipped, with their bytes intact.
func TestRotationQuarantineKeepsEvidence(t *testing.T) {
	valid := validBytes(t)
	bad := append([]byte(nil), valid...)
	bad[40] ^= 0xFF
	m := faultfs.NewMemFS()
	for name, content := range map[string][]byte{
		"idx.bin.000001":  valid,
		"idx.bin.000002":  bad,
		"idx.bin.CURRENT": []byte("idx.bin.000002\n"),
	} {
		f, _ := m.Create(name)
		f.Write(content)
		f.Sync()
		f.Close()
	}
	r := NewRotator(m, "idx.bin")
	if _, from, err := r.Load(); err != nil || from != "idx.bin.000001" {
		t.Fatalf("from=%s err=%v", from, err)
	}
	q, err := m.ReadFile("idx.bin.000002.corrupt")
	if err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if !bytes.Equal(q, bad) {
		t.Fatal("quarantined bytes differ from the corrupt original")
	}
	names, _ := m.ReadDirNames(".")
	for _, n := range names {
		if n == "idx.bin.000002" {
			t.Fatal("corrupt head still present under its original name")
		}
	}
}

// TestCrossSectionSwap moves a whole valid section elsewhere; the section-
// order check must catch it even though every CRC is intact.
func TestCrossSectionSwap(t *testing.T) {
	data := validBytes(t)
	// Parse the frame offsets.
	type frame struct{ start, end int }
	var frames []frame
	off := 12
	for off < len(data) {
		n := int(uint32(data[off+4]) | uint32(data[off+5])<<8 | uint32(data[off+6])<<16 | uint32(data[off+7])<<24)
		end := off + 8 + n + 4
		frames = append(frames, frame{off, end})
		off = end
	}
	if len(frames) < 4 {
		t.Fatalf("expected several sections, got %d", len(frames))
	}
	// Swap the DIMS and MEAS sections (frames 1 and 2).
	var swapped []byte
	swapped = append(swapped, data[:frames[1].start]...)
	swapped = append(swapped, data[frames[2].start:frames[2].end]...)
	swapped = append(swapped, data[frames[1].start:frames[1].end]...)
	swapped = append(swapped, data[frames[2].end:]...)
	if _, err := Read(bytes.NewReader(swapped)); err == nil {
		t.Fatalf("section swap accepted")
	}
}

// patchSection returns a copy of a valid snapshot with one section's
// payload replaced by edit(payload) and the frame's length and CRC
// recomputed: damage that framing and checksums vouch for, as a buggy or
// hostile peer's /v1/snapshot would carry it, so only the decoder's own
// validation can refuse it.
func patchSection(t testing.TB, data []byte, tag [4]byte, edit func(payload []byte) []byte) []byte {
	t.Helper()
	for off := 12; off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off+4:]))
		if [4]byte(data[off:off+4]) == tag {
			payload := edit(bytes.Clone(data[off+8 : off+8+n]))
			out := bytes.Clone(data[:off+4])
			out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
			out = append(out, payload...)
			out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
			return append(out, data[off+8+n+4:]...)
		}
		off += 8 + n + 4
	}
	t.Fatalf("no %s section", tag[:])
	return nil
}

// firstPartial returns the offsets, inside an RSLT payload, where the
// first S_P pair starts and ends. In a version 1 file the pair's degree
// follows at end and the length of its dimension list at end+8.
func firstPartial(t testing.TB, rslt []byte) (start, end int) {
	t.Helper()
	off := 0
	uvarint := func() uint64 {
		v, n := binary.Uvarint(rslt[off:])
		if n <= 0 {
			t.Fatalf("RSLT payload does not parse at offset %d", off)
		}
		off += n
		return v
	}
	for n := uvarint(); n > 0; n-- { // S_F
		uvarint()
		uvarint()
	}
	if uvarint() == 0 {
		t.Fatal("degenerate fixture: no partial pairs")
	}
	start = off
	uvarint()
	uvarint()
	return start, off
}

// v1Fixture is the golden paper example as version 1 wrote it: every S_P
// pair followed by its degree and an empty dimension list, then a LATT
// section.
const v1Fixture = "testdata/paper_example_v1.snap"

func readFile(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// withFirstDegree returns the version 1 fixture with the first S_P pair's
// stored degree replaced under a recomputed CRC, and the degree the space
// derives for that pair.
func withFirstDegree(t testing.TB, deg float64) (patched []byte, derived float64) {
	t.Helper()
	v1 := readFile(t, v1Fixture)
	sn, err := Read(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	first := sn.Result.PartialSet[0]
	return patchSection(t, v1, tagRslt, func(rslt []byte) []byte {
		_, at := firstPartial(t, rslt)
		binary.LittleEndian.PutUint64(rslt[at:], math.Float64bits(deg))
		return rslt
	}), sn.Space.Degree(first.A, first.B)
}

// TestPartialDegreeOutsideUnitInterval: a version 1 file's stored degree
// is input like any other. A degree is a count of containing dimensions
// over |P| with at least one and not all of them containing, so anything
// not strictly inside (0, 1) is refused however intact the frame around it
// — and so is a value inside it that is not the one the decoded space
// derives for the pair: nothing keeps the stored copy, so a load that
// accepted it would hide that the file and the space disagree.
func TestPartialDegreeOutsideUnitInterval(t *testing.T) {
	wrong, derived := withFirstDegree(t, 0.5)
	if derived != 1.0/3 {
		t.Fatalf("the first partial pair of the paper example derives %v, want 1/3", derived)
	}
	if _, err := Read(bytes.NewReader(wrong)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("degree 0.5 where the space derives 1/3: got %v, want ErrCorrupt", err)
	}
	control, _ := withFirstDegree(t, derived)
	if _, err := Read(bytes.NewReader(control)); err != nil {
		t.Fatalf("re-patching the derived degree must still decode: %v", err)
	}
	for _, deg := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, 7.5, 0, math.Copysign(0, -1), 1} {
		patched, _ := withFirstDegree(t, deg)
		if _, err := Read(bytes.NewReader(patched)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("degree %v: got %v, want ErrCorrupt", deg, err)
		}
	}
}

// withFirstPartialNotPartial returns the golden file with its first S_P
// pair replaced, under a recomputed CRC, by a pair of distinct observations
// whose derived degree is 0 or 1 — no partial pair at all — and that pair.
func withFirstPartialNotPartial(t testing.TB) (patched []byte, a, b int) {
	t.Helper()
	golden := readFile(t, "testdata/paper_example.snap")
	sn, err := Read(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	s := sn.Space
	for a = 0; a < s.N(); a++ {
		for b = 0; b < s.N(); b++ {
			if deg := s.Degree(a, b); a != b && (deg == 0 || deg == 1) {
				return patchSection(t, golden, tagRslt, func(rslt []byte) []byte {
					start, end := firstPartial(t, rslt)
					out := binary.AppendUvarint(bytes.Clone(rslt[:start]), uint64(a))
					out = binary.AppendUvarint(out, uint64(b))
					return append(out, rslt[end:]...)
				}), a, b
			}
		}
	}
	t.Fatal("the paper example has no pair of degree 0 or 1")
	return nil, 0, 0
}

// TestPartialPairMustDeriveInteriorDegree: S_P is stored as bare pairs, but
// the check the stored degree used to carry stays — a pair whose derived
// degree is not strictly inside (0, 1) cannot be a partial pair, and a
// CRC-valid file that lists one is refused, naming the pair.
func TestPartialPairMustDeriveInteriorDegree(t *testing.T) {
	patched, a, b := withFirstPartialNotPartial(t)
	_, err := Read(bytes.NewReader(patched))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("pair (%d, %d) of degree 0 or 1 in S_P: got %v, want ErrCorrupt", a, b, err)
	}
	if want := fmt.Sprintf("pair (%d, %d)", a, b); !strings.Contains(err.Error(), want) {
		t.Fatalf("error does not name %s: %v", want, err)
	}
}

// dimsFixture is the golden paper example as the builds before map_P
// became derived wrote it (version 1): every S_P pair carries its
// dimension list.
const dimsFixture = "testdata/paper_example_dims.snap"

// damagedDimsFixtures returns the old fixture and two copies of it whose
// first dimension list lies — an index that is no dimension, and a length
// the payload cannot hold — under recomputed CRCs.
func damagedDimsFixtures(t testing.TB) (old, badIndex, badLength []byte) {
	t.Helper()
	old = readFile(t, dimsFixture)
	badIndex = patchSection(t, old, tagRslt, func(rslt []byte) []byte {
		_, at := firstPartial(t, rslt)
		if rslt[at+8] == 0 {
			t.Fatal("the old fixture's first partial pair has no dimension list")
		}
		rslt[at+9] = 0x7f
		return rslt
	})
	badLength = patchSection(t, old, tagRslt, func(rslt []byte) []byte {
		_, at := firstPartial(t, rslt)
		lying := binary.AppendUvarint(bytes.Clone(rslt[:at+8]), 1<<30)
		return append(lying, rslt[at+9:]...)
	})
	return old, badIndex, badLength
}

// TestOldDimensionListsValidatedAndDropped: both version 1 fixtures — with empty
// dimension lists and with the lists older builds wrote — load to the state
// today's encoder writes: same sets, same degrees, no dimension map, and
// byte for byte the version 2 golden file when written back. Their lists
// are still input: one that lies fails the load, it is not skipped blind.
func TestOldDimensionListsValidatedAndDropped(t *testing.T) {
	golden := readFile(t, "testdata/paper_example.snap")
	cur, err := Read(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	dims, badIndex, badLength := damagedDimsFixtures(t)
	for name, data := range map[string][]byte{v1Fixture: readFile(t, v1Fixture), dimsFixture: dims} {
		if v := binary.LittleEndian.Uint32(data[8:]); v != 1 {
			t.Fatalf("%s: version %d, want 1", name, v)
		}
		old, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("decoding %s: %v", name, err)
		}
		checkEqual(t, cur, old)
		if len(old.Result.PartialSet) == 0 {
			t.Fatalf("%s: no partial pairs", name)
		}
		var buf bytes.Buffer
		if err := old.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("%s re-encodes to %d bytes that are not the golden file's %d", name, buf.Len(), len(golden))
		}
	}
	if _, err := Read(bytes.NewReader(badIndex)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("dimension index >= |P|: got %v, want ErrCorrupt", err)
	}
	if _, err := Read(bytes.NewReader(badLength)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("list length larger than the bytes left: got %v, want ErrCorrupt", err)
	}
}

// withoutFirstCubeMember returns the version 1 fixture with the first
// member of the first LATT cube removed under a recomputed CRC — a lattice
// that disagrees with the space it was written beside — and that member.
func withoutFirstCubeMember(t testing.TB) (patched []byte, member int) {
	t.Helper()
	v1 := readFile(t, v1Fixture)
	return patchSection(t, v1, tagLatt, func(latt []byte) []byte {
		off := 0
		uvarint := func() uint64 {
			v, n := binary.Uvarint(latt[off:])
			if n <= 0 {
				t.Fatalf("LATT payload does not parse at offset %d", off)
			}
			off += n
			return v
		}
		if uvarint() != 1 {
			t.Fatal("the v1 fixture carries no lattice")
		}
		nd := int(uvarint())
		if uvarint() == 0 {
			t.Fatal("the v1 fixture's lattice has no cubes")
		}
		off += nd // first cube's signature
		countAt := off
		n := uvarint()
		member = int(uvarint())
		out := binary.AppendUvarint(bytes.Clone(latt[:countAt]), n-1)
		return append(out, latt[off:]...)
	}), member
}

// TestV1LatticeIsRebuiltNotTrusted: a version 1 file's LATT section is
// not read. One whose CRC is valid but which leaves out an observation
// still loads, to the lattice the space derives, and an insert over it
// finds every pair it finds over the intact file — a stored lattice that
// was trusted would hide the dropped observation from every later insert.
func TestV1LatticeIsRebuiltNotTrusted(t *testing.T) {
	patched, member := withoutFirstCubeMember(t)
	sn, err := Read(bytes.NewReader(patched))
	if err != nil {
		t.Fatalf("Read of a v1 file with a short LATT: %v", err)
	}
	sameLattice(t, core.BuildLattice(sn.Space), sn.Lattice)

	intact, err := Read(bytes.NewReader(readFile(t, v1Fixture)))
	if err != nil {
		t.Fatal(err)
	}
	// insertCopy inserts a copy of the dropped observation and returns the
	// pairs the insert added to each set.
	insertCopy := func(sn *Snapshot) [3][]core.Pair {
		res := sn.Result
		n0 := [3]int{len(res.FullSet), len(res.PartialSet), len(res.ComplSet)}
		src := sn.Space.Obs[member]
		o := &qb.Observation{
			URI:           rdf.NewIRI(src.URI.Value + "-copy"),
			Dataset:       src.Dataset,
			DimValues:     append([]rdf.Term{}, src.DimValues...),
			MeasureValues: append([]rdf.Term{}, src.MeasureValues...),
		}
		if _, err := core.NewIncrementalFrom(sn.Space, core.TaskAll, res, sn.Lattice).Insert(o); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		return [3][]core.Pair{res.FullSet[n0[0]:], res.PartialSet[n0[1]:], res.ComplSet[n0[2]:]}
	}
	got, want := insertCopy(sn), insertCopy(intact)
	if len(want[0])+len(want[1])+len(want[2]) == 0 {
		t.Fatalf("degenerate: a copy of observation %d relates to nothing", member)
	}
	for i, name := range []string{"full", "partial", "complementarity"} {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s pairs of a copy of observation %d: got %v over the short LATT, want %v", name, member, got[i], want[i])
		}
	}
}
