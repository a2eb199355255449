// Package snapshot persists a computed relationship state — the compiled
// core.Space and the core.Result a relationship algorithm produced over
// it — as a versioned, self-describing binary file. It stores only what
// its reader cannot derive: partial degrees, map_P and the cubeMasking
// lattice are functions of the space and are rebuilt on load.
//
// The paper computes S_F, S_P and S_C as a one-shot batch job; a serving
// system pays that multi-minute cubeMasking pass once, writes a snapshot,
// and every restart reloads it in milliseconds instead of computing again
// (§6's incremental maintenance then keeps it fresh as observations
// arrive; see internal/serve and cmd/cubed).
//
// # Format
//
// A snapshot is a fixed header followed by length-prefixed, checksummed
// sections:
//
//	header   magic "RDFCSNAP" (8 bytes) ++ uint32 LE version (currently 2)
//	section  tag (4 bytes) ++ uint32 LE payload length ++ payload
//	         ++ uint32 LE CRC-32 (IEEE) of the payload
//
// Sections appear in this fixed order and are all required:
//
//	TERM  term dictionary (every rdf.Term referenced elsewhere, by index;
//	      index 0 is reserved for the zero Term)
//	DIMS  the global dimension set P, as term refs
//	MEAS  the global measure set M, as term refs
//	CODE  one code list per dimension: root plus (code, parent) links
//	DSET  dataset URIs and schemas (dimensions, measures, attributes)
//	OBSV  observations in Space.Obs order (dataset index, URI, values) —
//	      NOT grouped by dataset, so the observation indices that Result
//	      pairs reference survive live inserts into any dataset
//	RSLT  S_F, S_P and S_C, each a count and then (a, b) observation
//	      indices. Read derives every S_P pair's degree from the space and
//	      refuses a pair whose degree is not strictly inside (0, 1).
//	END\0 terminator (empty payload)
//
// Within payloads, integers are unsigned varints and strings are varint-
// length-prefixed bytes. Everything the encoder walks is in deterministic
// order, so encoding the same state twice yields identical bytes (golden
// files and checkpoint diffing rely on this).
//
// Read also accepts version 1, which differs in two places. Its RSLT
// follows every S_P pair with the degree (8 little-endian bytes of a
// float64) and a dimension list: the degree must equal the derived one and
// every list entry must index a dimension, and both are then dropped. A
// LATT section (the lattice the writer held) sits between RSLT and END: its
// CRC is checked and its payload discarded unparsed. Write never emits
// version 1.
//
// Read never panics on corrupt input: every length and index is bounds-
// checked, every section CRC is verified, and truncation at any byte
// offset yields an error.
package snapshot

import (
	"bytes"
	"fmt"
	"io"

	"rdfcube/internal/core"
	"rdfcube/internal/lattice"
)

// Magic identifies a snapshot stream.
const Magic = "RDFCSNAP"

// Version is the format version Write emits. Read also accepts version 1
// (see decode) and rejects every other.
const Version = 2

// Section tags, in the order sections must appear.
var (
	tagTerm = [4]byte{'T', 'E', 'R', 'M'}
	tagDims = [4]byte{'D', 'I', 'M', 'S'}
	tagMeas = [4]byte{'M', 'E', 'A', 'S'}
	tagCode = [4]byte{'C', 'O', 'D', 'E'}
	tagDset = [4]byte{'D', 'S', 'E', 'T'}
	tagObsv = [4]byte{'O', 'B', 'S', 'V'}
	tagRslt = [4]byte{'R', 'S', 'L', 'T'}
	tagLatt = [4]byte{'L', 'A', 'T', 'T'}
	tagEnd  = [4]byte{'E', 'N', 'D', 0}
)

// maxSection bounds a single section payload (1 GiB); larger lengths are
// treated as corruption before any allocation happens.
const maxSection = 1 << 30

// Snapshot bundles the persisted state: a compiled space, the relationship
// sets computed over it, and the lattice of the space.
type Snapshot struct {
	// Space is the compiled corpus (reconstructed on Read with the exact
	// observation order the Result indices reference).
	Space *core.Space
	// Result holds S_F, S_P and S_C. Read fills neither degrees nor a
	// dimension map: both are derived (core.Space.Degree, ContainDims).
	Result *core.Result
	// Lattice is the cube lattice. Write ignores it; Read rebuilds it
	// from the space (core.BuildLattice).
	Lattice *lattice.Lattice
}

// New bundles a snapshot. Any of res and l may be nil; a nil res is
// persisted as empty relationship sets, and l is never persisted.
func New(s *core.Space, res *core.Result, l *lattice.Lattice) *Snapshot {
	if res == nil {
		res = core.NewResult()
	}
	return &Snapshot{Space: s, Result: res, Lattice: l}
}

// Write serializes the snapshot to w in the documented format.
func (sn *Snapshot) Write(w io.Writer) error {
	if sn.Space == nil {
		return fmt.Errorf("snapshot: nil Space")
	}
	return encode(w, sn)
}

// Read parses a snapshot from r, verifying the header, section order and
// per-section checksums, reconstructs the space and result, and rebuilds
// the lattice from the space.
// Corrupt or truncated input yields an error, never a panic.
func Read(r io.Reader) (*Snapshot, error) {
	return decode(r)
}

// Encode serializes the snapshot to a byte slice. Long-running servers
// use it to capture a consistent image under their lock and push the disk
// I/O outside the critical section.
func (sn *Snapshot) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := sn.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
