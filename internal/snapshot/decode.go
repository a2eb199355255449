package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"rdfcube/internal/core"
	"rdfcube/internal/hierarchy"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

// ErrCorrupt wraps every structural decoding failure (bad magic, unknown
// version, section order, checksum mismatch, truncation, out-of-range
// reference). errors.Is(err, ErrCorrupt) distinguishes a damaged snapshot
// from an I/O error.
var ErrCorrupt = errors.New("snapshot: corrupt input")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// cur is a bounds-checked cursor over one section payload. Every read
// returns an error instead of panicking on truncated or hostile input.
type cur struct {
	b   []byte
	off int
	sec string
}

func (c *cur) rem() int { return len(c.b) - c.off }

func (c *cur) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, corrupt("%s: bad varint at offset %d", c.sec, c.off)
	}
	c.off += n
	return v, nil
}

// count reads a varint element count and rejects counts that could not
// possibly fit in the remaining payload (each element takes at least min
// bytes), so corrupt counts never trigger huge allocations.
func (c *cur) count(min int) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if min < 1 {
		min = 1
	}
	if v > uint64(c.rem()/min) {
		return 0, corrupt("%s: count %d exceeds remaining payload", c.sec, v)
	}
	return int(v), nil
}

func (c *cur) byte() (byte, error) {
	if c.rem() < 1 {
		return 0, corrupt("%s: truncated at offset %d", c.sec, c.off)
	}
	b := c.b[c.off]
	c.off++
	return b, nil
}

func (c *cur) bytes(n int) ([]byte, error) {
	if n < 0 || c.rem() < n {
		return nil, corrupt("%s: truncated at offset %d (want %d bytes)", c.sec, c.off, n)
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *cur) str() (string, error) {
	n, err := c.count(1)
	if err != nil {
		return "", err
	}
	b, err := c.bytes(n)
	return string(b), err
}

func (c *cur) done() error {
	if c.rem() != 0 {
		return corrupt("%s: %d trailing bytes", c.sec, c.rem())
	}
	return nil
}

// term resolves a dictionary reference.
func (c *cur) term(dict []rdf.Term) (rdf.Term, error) {
	r, err := c.uvarint()
	if err != nil {
		return rdf.Term{}, err
	}
	if r >= uint64(len(dict)) {
		return rdf.Term{}, corrupt("%s: term ref %d out of range (dictionary has %d)", c.sec, r, len(dict))
	}
	return dict[r], nil
}

// pair reads one (a, b) pair of observation indices below nObs.
func (c *cur) pair(nObs int) (p core.Pair, err error) {
	if p.A, err = c.index(nObs, "pair source"); err != nil {
		return p, err
	}
	p.B, err = c.index(nObs, "pair target")
	return p, err
}

// readPairs reads one relationship set: a count, then that many pairs.
func readPairs(c *cur, nObs int) ([]core.Pair, error) {
	n, err := c.count(2)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]core.Pair, n)
	for i := range out {
		if out[i], err = c.pair(nObs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readV1Partials reads S_P as version 1 wrote it: each pair followed by
// its degree as 8 bytes of float64 and a dimension list (empty since
// map_P became derived). Neither is kept, but both are input: the degree
// must be the one the decoded space derives, and every list entry must
// name a dimension.
func readV1Partials(c *cur, space *core.Space) ([]core.Pair, error) {
	n, err := c.count(11) // two refs + float64 + list length
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]core.Pair, n)
	for i := range out {
		p, err := c.pair(space.N())
		if err != nil {
			return nil, err
		}
		b, err := c.bytes(8)
		if err != nil {
			return nil, err
		}
		if deg, want := math.Float64frombits(binary.LittleEndian.Uint64(b)), space.Degree(p.A, p.B); deg != want {
			return nil, corrupt("RSLT: partial degree of pair (%d, %d) is %v, the space derives %v", p.A, p.B, deg, want)
		}
		nd, err := c.count(1)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nd; j++ {
			if _, err := c.index(space.NumDims(), "partial dimension"); err != nil {
				return nil, err
			}
		}
		out[i] = p
	}
	return out, nil
}

// index reads a varint and bounds-checks it against limit.
func (c *cur) index(limit int, what string) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v >= uint64(limit) {
		return 0, corrupt("%s: %s %d out of range (limit %d)", c.sec, what, v, limit)
	}
	return int(v), nil
}

// readSection reads one framed section: tag, length, payload, CRC.
func readSection(r io.Reader) (tag [4]byte, payload []byte, err error) {
	var hdr [8]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return tag, nil, corrupt("truncated section header: %v", err)
	}
	copy(tag[:], hdr[:4])
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxSection {
		return tag, nil, corrupt("section %q length %d exceeds limit", tag[:], n)
	}
	// Read the payload in bounded chunks rather than allocating the full
	// declared length up front: a corrupt header may claim anything up to
	// maxSection (1 GiB), and fuzzing showed that trusting it turns a
	// short truncated file into a gigabyte allocation. Chunking caps the
	// cost of a lying length at one chunk past the data actually present.
	const chunk = 1 << 20
	payload = make([]byte, 0, min(int(n), chunk))
	for len(payload) < int(n) {
		prev := len(payload)
		payload = append(payload, make([]byte, min(int(n)-prev, chunk))...)
		if _, err = io.ReadFull(r, payload[prev:]); err != nil {
			return tag, nil, corrupt("section %q truncated: %v", tag[:], err)
		}
	}
	var crc [4]byte
	if _, err = io.ReadFull(r, crc[:]); err != nil {
		return tag, nil, corrupt("section %q missing checksum: %v", tag[:], err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return tag, nil, corrupt("section %q checksum mismatch (got %08x, want %08x)", tag[:], got, want)
	}
	return tag, payload, nil
}

func expectSection(r io.Reader, want [4]byte) (*cur, error) {
	tag, payload, err := readSection(r)
	if err != nil {
		return nil, err
	}
	if tag != want {
		return nil, corrupt("expected section %q, found %q", want[:], tag[:])
	}
	return &cur{b: payload, sec: string(want[:])}, nil
}

func decode(r io.Reader) (*Snapshot, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, corrupt("truncated header: %v", err)
	}
	if string(hdr[:8]) != Magic {
		return nil, corrupt("bad magic %q", hdr[:8])
	}
	// The one version switch: version 1 differs only in how S_P is
	// stored and in a trailing LATT section, both handled below.
	var v1 bool
	switch v := binary.LittleEndian.Uint32(hdr[8:]); v {
	case 1:
		v1 = true
	case Version:
	default:
		return nil, corrupt("unsupported version %d (reader speaks 1 and %d)", v, Version)
	}

	// TERM: the dictionary every later section references.
	c, err := expectSection(r, tagTerm)
	if err != nil {
		return nil, err
	}
	nTerms, err := c.count(4) // kind byte + three length prefixes
	if err != nil {
		return nil, err
	}
	dict := make([]rdf.Term, nTerms+1) // [0] stays the zero Term
	for i := 1; i <= nTerms; i++ {
		kind, err := c.byte()
		if err != nil {
			return nil, err
		}
		if kind > byte(rdf.LiteralKind) {
			return nil, corrupt("TERM: unknown term kind %d", kind)
		}
		val, err := c.str()
		if err != nil {
			return nil, err
		}
		dt, err := c.str()
		if err != nil {
			return nil, err
		}
		lang, err := c.str()
		if err != nil {
			return nil, err
		}
		dict[i] = rdf.Term{Kind: rdf.Kind(kind), Value: val, Datatype: dt, Lang: lang}
	}
	if err := c.done(); err != nil {
		return nil, err
	}

	readTermList := func(c *cur) ([]rdf.Term, error) {
		n, err := c.count(1)
		if err != nil {
			return nil, err
		}
		out := make([]rdf.Term, n)
		for i := range out {
			if out[i], err = c.term(dict); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	// DIMS and MEAS: the global feature space, kept for validation against
	// the reconstructed corpus.
	c, err = expectSection(r, tagDims)
	if err != nil {
		return nil, err
	}
	dims, err := readTermList(c)
	if err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	c, err = expectSection(r, tagMeas)
	if err != nil {
		return nil, err
	}
	measures, err := readTermList(c)
	if err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}

	// CODE: one code list per dimension.
	c, err = expectSection(r, tagCode)
	if err != nil {
		return nil, err
	}
	nLists, err := c.count(3)
	if err != nil {
		return nil, err
	}
	if nLists != len(dims) {
		return nil, corrupt("CODE: %d code lists for %d dimensions", nLists, len(dims))
	}
	reg := hierarchy.NewRegistry()
	for d := 0; d < nLists; d++ {
		dim, err := c.term(dict)
		if err != nil {
			return nil, err
		}
		if dim != dims[d] {
			return nil, corrupt("CODE: list %d is for %s, want %s", d, dim, dims[d])
		}
		root, err := c.term(dict)
		if err != nil {
			return nil, err
		}
		nCodes, err := c.count(2)
		if err != nil {
			return nil, err
		}
		cl := hierarchy.New(dim, root)
		for i := 0; i < nCodes; i++ {
			codeT, err := c.term(dict)
			if err != nil {
				return nil, err
			}
			parent, err := c.term(dict)
			if err != nil {
				return nil, err
			}
			cl.Add(codeT, parent)
		}
		if err := cl.Seal(); err != nil {
			return nil, corrupt("CODE: %s: %v", dim, err)
		}
		reg.Register(cl)
	}
	if err := c.done(); err != nil {
		return nil, err
	}

	// DSET: datasets and schemas (observations arrive separately).
	c, err = expectSection(r, tagDset)
	if err != nil {
		return nil, err
	}
	nDatasets, err := c.count(4)
	if err != nil {
		return nil, err
	}
	corpus := qb.NewCorpus(reg)
	for i := 0; i < nDatasets; i++ {
		uri, err := c.term(dict)
		if err != nil {
			return nil, err
		}
		sd, err := readTermList(c)
		if err != nil {
			return nil, err
		}
		sm, err := readTermList(c)
		if err != nil {
			return nil, err
		}
		sa, err := readTermList(c)
		if err != nil {
			return nil, err
		}
		schema := qb.NewSchema(sd, sm)
		schema.Attributes = sa
		corpus.AddDataset(&qb.Dataset{URI: uri, Schema: schema})
	}
	if err := c.done(); err != nil {
		return nil, err
	}

	// The schemas determine the global feature space; it must agree with
	// the persisted one or the Result indices are meaningless.
	if err := sameTerms("dimension", corpus.AllDimensions(), dims); err != nil {
		return nil, err
	}
	if err := sameTerms("measure", corpus.AllMeasures(), measures); err != nil {
		return nil, err
	}

	space, err := core.NewSpace(corpus)
	if err != nil {
		return nil, corrupt("compiling space: %v", err)
	}

	// OBSV: observations appended one by one in the persisted (Space.Obs)
	// order, so relationship pair indices line up exactly.
	c, err = expectSection(r, tagObsv)
	if err != nil {
		return nil, err
	}
	nObs, err := c.count(2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nObs; i++ {
		di, err := c.index(len(corpus.Datasets), "dataset index")
		if err != nil {
			return nil, err
		}
		ds := corpus.Datasets[di]
		uri, err := c.term(dict)
		if err != nil {
			return nil, err
		}
		o := &qb.Observation{
			URI:           uri,
			Dataset:       ds,
			DimValues:     make([]rdf.Term, len(ds.Schema.Dimensions)),
			MeasureValues: make([]rdf.Term, len(ds.Schema.Measures)),
		}
		for j := range o.DimValues {
			if o.DimValues[j], err = c.term(dict); err != nil {
				return nil, err
			}
		}
		for j := range o.MeasureValues {
			if o.MeasureValues[j], err = c.term(dict); err != nil {
				return nil, err
			}
		}
		ds.Observations = append(ds.Observations, o)
		idx, err := space.AppendObservation(o)
		if err != nil {
			return nil, corrupt("OBSV: observation %d: %v", i, err)
		}
		if idx != i {
			return nil, corrupt("OBSV: observation %d landed at index %d", i, idx)
		}
	}
	if err := c.done(); err != nil {
		return nil, err
	}

	// RSLT: the relationship sets. A partial pair is stored bare; its
	// degree is derived from the space decoded above and must lie strictly
	// inside (0, 1) — at least one dimension contains and not all do — or
	// the pair is not one the space can hold.
	c, err = expectSection(r, tagRslt)
	if err != nil {
		return nil, err
	}
	res := core.NewResult()
	if res.FullSet, err = readPairs(c, nObs); err != nil {
		return nil, err
	}
	if v1 {
		res.PartialSet, err = readV1Partials(c, space)
	} else {
		res.PartialSet, err = readPairs(c, nObs)
	}
	if err != nil {
		return nil, err
	}
	if res.ComplSet, err = readPairs(c, nObs); err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	for _, p := range res.PartialSet {
		if deg := space.Degree(p.A, p.B); !(deg > 0 && deg < 1) { // NaN fails both comparisons
			return nil, corrupt("RSLT: partial pair (%d, %d) derives degree %v, not inside (0, 1)", p.A, p.B, deg)
		}
	}

	// A version 1 file carries the lattice it was written with; it is
	// checksummed by expectSection and discarded unparsed, since the
	// lattice is rebuilt from the space below.
	if v1 {
		if _, err := expectSection(r, tagLatt); err != nil {
			return nil, err
		}
	}

	// END, then clean EOF.
	c, err = expectSection(r, tagEnd)
	if err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err != io.EOF {
		return nil, corrupt("trailing data after END section")
	}

	return &Snapshot{Space: space, Result: res, Lattice: core.BuildLattice(space)}, nil
}

// sameTerms verifies that two sorted term slices are identical.
func sameTerms(what string, got, want []rdf.Term) error {
	if len(got) != len(want) {
		return corrupt("reconstructed corpus has %d %ss, snapshot says %d", len(got), what, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return corrupt("%s %d is %s, snapshot says %s", what, i, got[i], want[i])
		}
	}
	return nil
}
