package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"unsafe"
)

// List names one of the five neighbour lists of a fan-out body.
type List int

// The lists, in the order cubegate renders them.
const (
	Contains List = iota
	ContainedBy
	PartiallyContains
	PartiallyContainedBy
	Complements
	NumLists
)

var listNames = [NumLists]string{"contains", "containedBy", "partiallyContains", "partiallyContainedBy", "complements"}

// Name is the list's member name in a body.
func (l List) Name() string { return listNames[l] }

// HasDegree reports whether the list's neighbours carry a degree.
func (l List) HasDegree() bool { return l == PartiallyContains || l == PartiallyContainedBy }

// Neighbor is one scanned neighbour. URI aliases the scanned body unless
// its literal held an escape or a non-ASCII byte and had to be decoded.
type Neighbor struct {
	URI    []byte
	Degree float64
}

// Answer is the content of one fan-out body, or of several merged: Scan
// appends, so scanning every shard's body into one Answer and calling
// Compact is the merge. It references the scanned bodies; keep them
// unchanged for as long as the Answer is read.
type Answer struct {
	URI   []byte // of the body scanned last
	Lists [NumLists][]Neighbor
	sort  keyedSort
}

// Reset empties a, keeping the lists' capacity but none of their
// references into scanned bodies.
func (a *Answer) Reset() {
	a.URI = nil
	for l, list := range a.Lists {
		clear(list[:cap(list)])
		a.Lists[l] = list[:0]
	}
	clear(a.sort.spare[:cap(a.sort.spare)])
}

// Footprint is the number of bytes a's lists and sort scratch hold
// allocated, for a pool that keeps only small Answers.
func (a *Answer) Footprint() int {
	n := cap(a.sort.spare)
	for _, list := range a.Lists {
		n += cap(list)
	}
	return n*int(unsafe.Sizeof(Neighbor{})) + (cap(a.sort.keys)+cap(a.sort.tmp))*int(unsafe.Sizeof(keyed{}))
}

// Compact sorts every list by URI bytes and keeps one neighbour per URI,
// with the largest degree seen for it. Over relationship-closed shards no
// two owners report the same neighbour; the max rule only makes the merge
// total and independent of the order the bodies were scanned in.
func (a *Answer) Compact() {
	for l, list := range a.Lists {
		if len(list) < keyedMin {
			slices.SortFunc(list, compareURIs)
		} else {
			list = a.sort.sort(list)
		}
		out := list[:0]
		for _, n := range list {
			if k := len(out) - 1; k >= 0 && bytes.Equal(out[k].URI, n.URI) {
				out[k].Degree = max(out[k].Degree, n.Degree)
				continue
			}
			out = append(out, n)
		}
		a.Lists[l] = out
	}
}

func compareURIs(x, y Neighbor) int { return bytes.Compare(x.URI, y.URI) }

// keyedMin is the list length from which Compact sorts by key: on shorter
// lists the key passes cost more than the comparisons they save.
const keyedMin = 128

// keyed is one neighbour's sort key — the 8 bytes after its list's common
// URI prefix, big-endian, zero-padded — and its place in the list. Keys
// order as bytes.Compare orders the URIs, except that equal keys say
// nothing.
type keyed struct {
	key uint64
	at  int
}

// keyedSort is Compact's scratch for long lists, kept with the Answer.
type keyedSort struct {
	keys, tmp []keyed
	spare     []Neighbor // a list's former array, the next sort's output
}

// sort returns list ordered by URI bytes. The result is in the spare
// array; list's array becomes the next spare.
func (ks *keyedSort) sort(list []Neighbor) []Neighbor {
	out := slices.Grow(ks.spare[:0], len(list))[:len(list)]
	ks.radix(list, out, 0)
	ks.spare = list
	return out
}

// radix writes src, whose URIs share their first minPrefix bytes, ordered
// by URI bytes into dst, of src's length; src is scratch afterwards. It
// orders by key (sortKeys), then each run of equal keys: by key again,
// from the run's own common prefix, when the run is long — a shard's own
// observations and the ones inserted later can share a prefix that ends
// where both families' keys are still equal — and by comparison when it
// is short or a URI in it ends inside the key.
func (ks *keyedSort) radix(src, dst []Neighbor, minPrefix int) {
	p := len(src[0].URI)
	for _, n := range src {
		if len(n.URI) < minPrefix {
			copy(dst, src)
			slices.SortFunc(dst, compareURIs)
			return
		}
		p = minPrefix + commonPrefix(src[0].URI[minPrefix:min(p, len(n.URI))], n.URI[minPrefix:])
	}
	keys := ks.keys[:0]
	for i, n := range src {
		keys = append(keys, keyed{key8(n.URI, p), i})
	}
	sorted := slices.Grow(ks.tmp[:0], len(keys))[:len(keys)]
	sortKeys(keys, sorted)
	for i, k := range sorted {
		dst[i] = src[k.at]
	}
	ks.keys, ks.tmp = keys, sorted // the runs below may reuse them
	for lo := 0; lo < len(dst); {
		k, hi := key8(dst[lo].URI, p), lo+1
		for hi < len(dst) && key8(dst[hi].URI, p) == k {
			hi++
		}
		switch {
		case hi-lo >= keyedMin:
			ks.radix(dst[lo:hi], src[lo:hi], p+8)
			copy(dst[lo:hi], src[lo:hi])
		case hi-lo > 1:
			slices.SortFunc(dst[lo:hi], compareURIs)
		}
		lo = hi
	}
}

// sortKeys writes keys ordered by key into sorted, of keys' length; keys is
// scratch afterwards. A counting pass places them by top byte; each
// top-byte bucket is then ordered by a least-significant-digit radix sort
// over the lower bytes in which its keys differ, or by insertion when it
// is small.
func sortKeys(keys, sorted []keyed) {
	var at [256]int32
	for _, k := range keys {
		at[k.key>>56]++
	}
	var sum int32
	for d, c := range at {
		at[d], sum = sum, sum+c
	}
	for _, k := range keys {
		d := k.key >> 56
		sorted[at[d]] = k
		at[d]++
	}
	lo := int32(0)
	for _, hi := range at {
		if hi-lo > 1 {
			sortBucket(sorted[lo:hi], keys[lo:hi])
		}
		lo = hi
	}
}

// insertionMax is the largest top-byte bucket sortBucket orders by
// insertion rather than by radix passes over 256 byte values.
const insertionMax = 32

// sortBucket orders b, whose keys share their top byte, in place, with
// other as scratch of b's length.
func sortBucket(b, other []keyed) {
	if len(b) <= insertionMax {
		for i := 1; i < len(b); i++ {
			for j := i; j > 0 && b[j].key < b[j-1].key; j-- {
				b[j], b[j-1] = b[j-1], b[j]
			}
		}
		return
	}
	var differ uint64
	for _, k := range b {
		differ |= k.key ^ b[0].key
	}
	src, dst := b, other
	for shift := 0; shift < 56; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		var at [256]int32
		for _, k := range src {
			at[byte(k.key>>shift)]++
		}
		var sum int32
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for _, k := range src {
			d := byte(k.key >> shift)
			dst[at[d]] = k
			at[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &b[0] {
		copy(b, src)
	}
}

// commonPrefix is the length of the longest common prefix of a and b,
// len(a) at most, compared eight bytes a step.
func commonPrefix(a, b []byte) int {
	i := 0
	for ; i+8 <= len(a) && i+8 <= len(b); i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < len(a) && i < len(b) && a[i] == b[i]; i++ {
	}
	return i
}

// key8 is the 8 bytes of uri from offset p as a big-endian number,
// zero-padded. A shorter tail is read as the last 8 bytes of uri, shifted
// up past the bytes before p.
func key8(uri []byte, p int) uint64 {
	switch tail := len(uri) - p; {
	case tail >= 8:
		return binary.BigEndian.Uint64(uri[p:])
	case len(uri) >= 8:
		return binary.BigEndian.Uint64(uri[len(uri)-8:]) << (8 * (8 - tail))
	}
	var k uint64
	for i, c := range uri[p:] {
		k |= uint64(c) << (56 - 8*i)
	}
	return k
}

// maxDepth bounds how deep the containers of a document may nest, counted
// from the body's own object; the known shape needs three levels, the rest
// is room for members this version skips.
const maxDepth = 64

// Scan appends body's lists to a's and sets a.URI. On error a is left as
// it was.
func (a *Answer) Scan(body []byte) error {
	before := *a
	s := scanner{b: body}
	if err := s.answer(a); err != nil {
		*a = before // appends past the old lengths are invisible again
		return err
	}
	return nil
}

type scanner struct {
	b   []byte
	pos int
	// One body's degrees repeat — k/|P| takes |P|+1 values — so the last
	// few number texts are kept with their values, and most neighbours skip
	// strconv.
	degText [4][]byte
	degVal  [4]float64
	degNext int
}

func (s *scanner) fail(what string) error {
	if s.pos >= len(s.b) {
		return fmt.Errorf("wire: body ends at offset %d, want %s", len(s.b), what)
	}
	return fmt.Errorf("wire: offset %d: %q, want %s", s.pos, s.b[s.pos], what)
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end (a NUL
// byte in the input is no token either).
func (s *scanner) peek() byte {
	s.ws()
	if s.pos < len(s.b) {
		return s.b[s.pos]
	}
	return 0
}

// eat consumes c, after whitespace, or fails.
func (s *scanner) eat(c byte, what string) error {
	if s.peek() != c {
		return s.fail(what)
	}
	s.pos++
	return nil
}

// members walks the object at the cursor, calling member with each name
// and the cursor on the value's first byte; member consumes the value.
func (s *scanner) members(member func(name []byte) error) error {
	if err := s.eat('{', "'{'"); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.pos++
		return nil
	}
	for {
		if s.peek() != '"' {
			return s.fail("a member name")
		}
		name, err := s.str()
		if err != nil {
			return err
		}
		if err := s.eat(':', "':'"); err != nil {
			return err
		}
		s.ws()
		if err := member(name); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return nil
		default:
			return s.fail("',' or '}'")
		}
	}
}

// once marks a known member as seen, failing when it already was.
func (s *scanner) once(seen *bool, name []byte) error {
	if *seen {
		return fmt.Errorf("wire: offset %d: member %q repeated", s.pos, name)
	}
	*seen = true
	return nil
}

// answer scans the whole body.
func (s *scanner) answer(a *Answer) error {
	var seenList [NumLists]bool
	seenURI := false
	err := s.members(func(name []byte) (err error) {
		if l := slices.Index(listNames[:], string(name)); l >= 0 {
			if err = s.once(&seenList[l], name); err == nil {
				err = s.list(&a.Lists[l])
			}
		} else if string(name) == "uri" {
			if err = s.once(&seenURI, name); err == nil {
				a.URI, err = s.stringValue()
			}
		} else {
			err = s.skip(1)
		}
		return err
	})
	if err != nil {
		return err
	}
	if s.ws(); s.pos < len(s.b) {
		return s.fail("the end of the body")
	}
	if !seenURI {
		return fmt.Errorf("wire: body has no \"uri\" member")
	}
	return nil
}

// stringValue scans a member value that must be a string.
func (s *scanner) stringValue() ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.fail("a string")
	}
	return s.str()
}

// elements walks the array at the cursor — the caller saw its '[' —
// calling elem with the cursor on each element's first byte; elem consumes
// the element.
func (s *scanner) elements(elem func() error) error {
	s.pos++
	if s.peek() == ']' {
		s.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return nil
		default:
			return s.fail("',' or ']'")
		}
	}
}

// list scans null or an array of neighbour objects onto *dst.
func (s *scanner) list(dst *[]Neighbor) error {
	switch s.peek() {
	case 'n':
		return s.word("null")
	case '[':
		return s.elements(func() error {
			n, err := s.neighbor()
			if err == nil {
				*dst = append(*dst, n)
			}
			return err
		})
	}
	return s.fail("'[' or null")
}

// neighbor scans one neighbour object: written as serve writes it, in one
// pass (canonical); otherwise through the general member loop, which is
// the grammar's one definition.
func (s *scanner) neighbor() (Neighbor, error) {
	if n, ok := s.canonical(); ok {
		return n, nil
	}
	var n Neighbor
	seenURI, seenDegree := false, false
	err := s.members(func(name []byte) (err error) {
		switch string(name) {
		case "uri":
			if err = s.once(&seenURI, name); err == nil {
				n.URI, err = s.stringValue()
			}
		case "degree":
			if err = s.once(&seenDegree, name); err == nil {
				n.Degree, err = s.number()
			}
		default:
			err = s.skip(3)
		}
		return err
	})
	if err == nil && !seenURI {
		err = fmt.Errorf("wire: offset %d: neighbour has no \"uri\" member", s.pos)
	}
	return n, err
}

// canonical reads the neighbour at the cursor when it is written exactly
// as wire.AppendRef and serve write one — {"obs":N,"uri":"…"} or
// {"obs":N,"uri":"…","degree":X}, no whitespace, N without a sign or a
// leading zero, a URI of plain bytes — and moves past it. On anything else
// it reports false with the cursor where it was. Every object it accepts
// the member loop accepts too, as the same Neighbor. (The literals are
// compared as constants, which the compiler turns into word loads.)
func (s *scanner) canonical() (Neighbor, bool) {
	b, i := s.b, s.pos
	if len(b)-i < len(`{"obs":0,"uri":""}`) || string(b[i:i+7]) != `{"obs":` || !isDigit(b[i+7]) {
		return Neighbor{}, false
	}
	i += 7
	if b[i] == '0' {
		i++
	} else {
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	if len(b)-i < 8 || string(b[i:i+8]) != `,"uri":"` {
		return Neighbor{}, false
	}
	i += 8
	q := plainRun(b[i:])
	if i+q >= len(b) || b[i+q] != '"' {
		return Neighbor{}, false
	}
	n := Neighbor{URI: b[i : i+q]}
	i += q + 1
	if i < len(b) && b[i] == '}' {
		s.pos = i + 1
		return n, true
	}
	if len(b)-i < 10 || string(b[i:i+10]) != `,"degree":` {
		return Neighbor{}, false
	}
	i += 10
	// A number text kept from before, followed by the object's end, is
	// valid and already parsed.
	for k, t := range s.degText {
		if e := i + len(t); len(t) > 0 && e < len(b) && b[e] == '}' && sameText(b[i:e], t) {
			n.Degree = s.degVal[k]
			s.pos = e + 1
			return n, true
		}
	}
	start := s.pos
	s.pos = i
	var err error
	if n.Degree, err = s.number(); err != nil || s.pos >= len(b) || b[s.pos] != '}' {
		s.pos = start
		return Neighbor{}, false
	}
	s.pos++
	return n, true
}

// str scans the string literal at the cursor. One of plain bytes only —
// every URI the generators and loaders produce — is returned as a slice of
// the body; anything else is checked against the grammar here and decoded
// by encoding/json, whose rules (surrogate pairs, invalid UTF-8) are not
// restated.
func (s *scanner) str() ([]byte, error) {
	start := s.pos
	s.pos++ // the caller saw the opening quote
	if s.pos += plainRun(s.b[s.pos:]); s.pos < len(s.b) && s.b[s.pos] == '"' {
		s.pos++
		return s.b[start+1 : s.pos-1], nil
	}
	for s.pos < len(s.b) {
		switch c := s.b[s.pos]; {
		case c == '"':
			s.pos++
			var v string
			if err := json.Unmarshal(s.b[start:s.pos], &v); err != nil {
				return nil, fmt.Errorf("wire: offset %d: %w", start, err)
			}
			return []byte(v), nil
		case c < 0x20:
			return nil, s.fail("no control byte in a string")
		case c != '\\':
			s.pos++
		default:
			s.pos++
			if s.pos >= len(s.b) {
				return nil, s.fail("an escape")
			}
			switch s.b[s.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos++
			case 'u':
				s.pos++
				for range 4 {
					if s.pos >= len(s.b) || !isHex(s.b[s.pos]) {
						return nil, s.fail("four hex digits")
					}
					s.pos++
				}
			default:
				return nil, s.fail("an escape")
			}
		}
	}
	return nil, s.fail("'\"'")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// numberText consumes a JSON number and returns its text.
func (s *scanner) numberText() ([]byte, error) {
	start := s.pos
	digits := func() bool {
		from := s.pos
		for s.pos < len(s.b) && isDigit(s.b[s.pos]) {
			s.pos++
		}
		return s.pos > from
	}
	if s.pos < len(s.b) && s.b[s.pos] == '-' {
		s.pos++
	}
	if s.pos < len(s.b) && s.b[s.pos] == '0' {
		s.pos++
	} else if !digits() {
		return nil, s.fail("a digit")
	}
	if s.pos < len(s.b) && s.b[s.pos] == '.' {
		s.pos++
		if !digits() {
			return nil, s.fail("a digit")
		}
	}
	if s.pos < len(s.b) && (s.b[s.pos] == 'e' || s.b[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.b) && (s.b[s.pos] == '+' || s.b[s.pos] == '-') {
			s.pos++
		}
		if !digits() {
			return nil, s.fail("a digit")
		}
	}
	return s.b[start:s.pos], nil
}

// number scans a number a float64 can hold; encoding/json refuses one that
// overflows, and so does this.
func (s *scanner) number() (float64, error) {
	start := s.pos
	text, err := s.numberText()
	if err != nil {
		return 0, err
	}
	for k, seen := range s.degText {
		if sameText(seen, text) {
			return s.degVal[k], nil
		}
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return 0, fmt.Errorf("wire: offset %d: %w", start, err)
	}
	s.degText[s.degNext], s.degVal[s.degNext] = text, f
	s.degNext = (s.degNext + 1) % len(s.degText)
	return f, nil
}

// sameText is bytes.Equal for the short texts of numbers, compared eight
// bytes a step in line rather than through a call.
func sameText(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for len(a) >= 8 {
		if binary.LittleEndian.Uint64(a) != binary.LittleEndian.Uint64(b) {
			return false
		}
		a, b = a[8:], b[8:]
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// word consumes the literal w.
func (s *scanner) word(w string) error {
	if !bytes.HasPrefix(s.b[s.pos:], []byte(w)) {
		return s.fail(w)
	}
	s.pos += len(w)
	return nil
}

// skip checks the value at the cursor against the JSON grammar and moves
// past it; depth is how many containers already enclose it.
func (s *scanner) skip(depth int) error {
	switch c := s.peek(); {
	case c == '"':
		_, err := s.str()
		return err
	case c == '-' || isDigit(c):
		_, err := s.numberText()
		return err
	case c == 't':
		return s.word("true")
	case c == 'f':
		return s.word("false")
	case c == 'n':
		return s.word("null")
	case c == '{' || c == '[':
		if depth >= maxDepth {
			return fmt.Errorf("wire: offset %d: nested deeper than %d", s.pos, maxDepth)
		}
		if c == '{' {
			return s.members(func([]byte) error { return s.skip(depth + 1) })
		}
		return s.elements(func() error { return s.skip(depth + 1) })
	}
	return s.fail("a value")
}
