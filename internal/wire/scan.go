package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
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
}

// Reset empties a, keeping the lists' capacity but none of their
// references into scanned bodies.
func (a *Answer) Reset() {
	a.URI = nil
	for l, list := range a.Lists {
		clear(list[:cap(list)])
		a.Lists[l] = list[:0]
	}
}

// Compact sorts every list by URI bytes and keeps one neighbour per URI,
// with the largest degree seen for it. Over relationship-closed shards no
// two owners report the same neighbour; the max rule only makes the merge
// total and independent of the order the bodies were scanned in.
func (a *Answer) Compact() {
	for l, list := range a.Lists {
		slices.SortFunc(list, func(x, y Neighbor) int { return bytes.Compare(x.URI, y.URI) })
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

func (s *scanner) neighbor() (Neighbor, error) {
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

// str scans the string literal at the cursor. One of plain bytes only —
// every URI the generators and loaders produce — is returned as a slice of
// the body; anything else is checked against the grammar here and decoded
// by encoding/json, whose rules (surrogate pairs, invalid UTF-8) are not
// restated.
func (s *scanner) str() ([]byte, error) {
	start := s.pos
	s.pos++ // the caller saw the opening quote
	for s.pos < len(s.b) && plain[s.b[s.pos]] {
		s.pos++
	}
	if s.pos < len(s.b) && s.b[s.pos] == '"' {
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
	for i, seen := range s.degText {
		if bytes.Equal(seen, text) {
			return s.degVal[i], nil
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
