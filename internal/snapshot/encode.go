package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

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

// appendResultPairs appends the RSLT payload of a Result: S_F, S_P and S_C,
// each its length and then its (a, b) pairs in slice order.
func appendResultPairs(b []byte, res *core.Result) []byte {
	for _, set := range [][]core.Pair{res.FullSet, res.PartialSet, res.ComplSet} {
		b = binary.AppendUvarint(b, uint64(len(set)))
		for _, p := range set {
			b = binary.AppendUvarint(b, uint64(p.A))
			b = binary.AppendUvarint(b, uint64(p.B))
		}
	}
	return b
}

// appendIndexPairs appends the RSLT payload of an Index by walking its
// sorted lists: S_F off Contains, S_P off PartiallyContains and S_C off
// the partners b > a of Complements. The walk yields each set in (a, b)
// order, so the payload equals appendResultPairs' for the same sets after
// Result.Sort.
func appendIndexPairs(b []byte, ix *core.Index) []byte {
	f, p, c := ix.Counts()
	rows := [3]func(a int) []int32{ix.Contains, ix.PartiallyContains, func(a int) []int32 {
		row := ix.Complements(a)
		k, _ := slices.BinarySearch(row, int32(a)+1)
		return row[k:]
	}}
	for k, n := range [3]int{f, p, c} {
		b = binary.AppendUvarint(b, uint64(n))
		for a := 0; a < ix.Space().N(); a++ {
			for _, x := range rows[k](a) {
				b = binary.AppendUvarint(b, uint64(a))
				b = binary.AppendUvarint(b, uint64(x))
			}
		}
	}
	return b
}

// encode assembles the header and every section into one slice sized from
// the section lengths. The RSLT payload comes from res's three slices or,
// when res is nil, from the walk of ix's lists.
func encode(s *core.Space, res *core.Result, ix *core.Index) ([]byte, error) {
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
			return nil, fmt.Errorf("snapshot: observation %s belongs to a dataset outside the corpus", o.URI)
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

	// The dictionary is complete now; build its payload.
	var term enc
	term.uvarint(uint64(len(d.terms)))
	for _, t := range d.terms {
		term.byte(byte(t.Kind))
		term.str(t.Value)
		term.str(t.Datatype)
		term.str(t.Lang)
	}

	// S_F, S_P and S_C as bare pairs: a partial pair's degree and map_P
	// are functions of its two rows, derived again by the reader. Every
	// pair member is an observation index below N, so a pair takes at most
	// twice the varint length of N-1: that bound sizes the payload once.
	idxLen := len(binary.AppendUvarint(nil, uint64(max(s.N()-1, 0))))
	sized := func(f, p, c int) []byte { return make([]byte, 0, 3*binary.MaxVarintLen64+2*idxLen*(f+p+c)) }
	var rslt []byte
	if res != nil {
		rslt = appendResultPairs(sized(res.Counts()), res)
	} else {
		rslt = appendIndexPairs(sized(ix.Counts()), ix)
	}

	sections := []struct {
		tag [4]byte
		pay []byte
	}{
		{tagTerm, term.buf},
		{tagDims, dims.buf},
		{tagMeas, meas.buf},
		{tagCode, code.buf},
		{tagDset, dset.buf},
		{tagObsv, obsv.buf},
		{tagRslt, rslt},
		{tagEnd, nil},
	}
	size := len(Magic) + 4
	for _, sec := range sections {
		if len(sec.pay) > maxSection {
			return nil, fmt.Errorf("snapshot: section %q exceeds %d bytes", sec.tag, maxSection)
		}
		size += 12 + len(sec.pay) // tag, length, payload, CRC
	}
	out := make([]byte, 0, size)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	for _, sec := range sections {
		out = append(out, sec.tag[:]...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(sec.pay)))
		out = append(out, sec.pay...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(sec.pay))
	}
	return out, nil
}
