package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"rdfcube/internal/core"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
)

// dict is the deterministic term dictionary of one encoding run. Index 0
// is reserved for the zero Term; real terms start at 1 in first-interned
// order (the encoder walks the snapshot in a fixed order, so the same
// state always yields the same dictionary).
type dict struct {
	terms []rdf.Term
	idx   map[rdf.Term]uint64
}

func newDict() *dict { return &dict{idx: map[rdf.Term]uint64{}} }

// ref returns the dictionary index of t, interning it on first use.
func (d *dict) ref(t rdf.Term) uint64 {
	if t.IsZero() {
		return 0
	}
	if i, ok := d.idx[t]; ok {
		return i
	}
	d.terms = append(d.terms, t)
	i := uint64(len(d.terms)) // 1-based: 0 is the zero Term
	d.idx[t] = i
	return i
}

// enc accumulates one section payload.
type enc struct{ buf []byte }

func (e *enc) uvarint(v uint64)         { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) byte(b byte)              { e.buf = append(e.buf, b) }
func (e *enc) str(s string)             { e.uvarint(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *enc) term(d *dict, t rdf.Term) { e.uvarint(d.ref(t)) }

// pairs writes one relationship set: its length, then each (a, b).
func (e *enc) pairs(ps []core.Pair) {
	e.uvarint(uint64(len(ps)))
	for _, p := range ps {
		e.uvarint(uint64(p.A))
		e.uvarint(uint64(p.B))
	}
}

// writeSection frames one payload: tag, length, bytes, CRC-32.
func writeSection(w io.Writer, tag [4]byte, payload []byte) error {
	var hdr [8]byte
	copy(hdr[:4], tag[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(crc[:])
	return err
}

func encode(w io.Writer, sn *Snapshot) error {
	s, res := sn.Space, sn.Result
	d := newDict()

	// Section payloads are assembled first (interning terms in a fixed
	// walk order), then the finished dictionary is written as the leading
	// TERM section.
	var dims enc
	dims.uvarint(uint64(len(s.Dims)))
	for _, t := range s.Dims {
		dims.term(d, t)
	}

	var meas enc
	meas.uvarint(uint64(len(s.Measures)))
	for _, t := range s.Measures {
		meas.term(d, t)
	}

	var code enc
	code.uvarint(uint64(len(s.Dims)))
	for dd, dim := range s.Dims {
		cl := s.Lists[dd]
		code.term(d, dim)
		code.term(d, cl.Root)
		codes := cl.Codes()
		code.uvarint(uint64(len(codes) - 1)) // non-root codes
		for _, c := range codes {
			if c == cl.Root {
				continue
			}
			code.term(d, c)
			code.term(d, cl.Parent(c))
		}
	}

	dsIndex := make(map[*qb.Dataset]int, len(s.Corpus.Datasets))
	var dset enc
	dset.uvarint(uint64(len(s.Corpus.Datasets)))
	for i, ds := range s.Corpus.Datasets {
		dsIndex[ds] = i
		dset.term(d, ds.URI)
		dset.uvarint(uint64(len(ds.Schema.Dimensions)))
		for _, t := range ds.Schema.Dimensions {
			dset.term(d, t)
		}
		dset.uvarint(uint64(len(ds.Schema.Measures)))
		for _, t := range ds.Schema.Measures {
			dset.term(d, t)
		}
		dset.uvarint(uint64(len(ds.Schema.Attributes)))
		for _, t := range ds.Schema.Attributes {
			dset.term(d, t)
		}
	}

	// Observations in Space.Obs order — the order every Result pair index
	// refers to — with an explicit dataset back-reference, so live inserts
	// into any dataset survive a write/read round trip with indices intact.
	var obsv enc
	obsv.uvarint(uint64(len(s.Obs)))
	for _, o := range s.Obs {
		di, ok := dsIndex[o.Dataset]
		if !ok {
			return fmt.Errorf("snapshot: observation %s belongs to a dataset outside the corpus", o.URI)
		}
		obsv.uvarint(uint64(di))
		obsv.term(d, o.URI)
		for _, v := range o.DimValues {
			obsv.term(d, v)
		}
		for _, v := range o.MeasureValues {
			obsv.term(d, v)
		}
	}

	// S_F, S_P and S_C as bare pairs: a partial pair's degree and map_P
	// are functions of its two rows, derived again by the reader.
	var rslt enc
	for _, set := range [][]core.Pair{res.FullSet, res.PartialSet, res.ComplSet} {
		rslt.pairs(set)
	}

	// The dictionary is complete now; build its payload.
	var term enc
	term.uvarint(uint64(len(d.terms)))
	for _, t := range d.terms {
		term.byte(byte(t.Kind))
		term.str(t.Value)
		term.str(t.Datatype)
		term.str(t.Lang)
	}

	bw := bufio.NewWriter(w)
	var hdr [12]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	for _, sec := range []struct {
		tag [4]byte
		pay []byte
	}{
		{tagTerm, term.buf},
		{tagDims, dims.buf},
		{tagMeas, meas.buf},
		{tagCode, code.buf},
		{tagDset, dset.buf},
		{tagObsv, obsv.buf},
		{tagRslt, rslt.buf},
		{tagEnd, nil},
	} {
		if len(sec.pay) > maxSection {
			return fmt.Errorf("snapshot: section %q exceeds %d bytes", sec.tag, maxSection)
		}
		if err := writeSection(bw, sec.tag, sec.pay); err != nil {
			return err
		}
	}
	return bw.Flush()
}
