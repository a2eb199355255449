// Package wire owns the grammar of the fan-out bodies — the answers to
// /v1/related, /v1/contains and /v1/complements — in both directions: the
// append helpers cubed's handlers and cubegate's merge render them with,
// and the scanner cubegate and the migration comparator read them with.
//
// A shard body is one JSON object whose members, in any order, are
//
//	"uri"                   the queried observation's URI (required)
//	"contains", "containedBy", "partiallyContains",
//	"partiallyContainedBy", "complements"
//	                        each null or an array of neighbour objects,
//	                        {"uri": string, "degree": number, ...}
//	                        ("uri" required, "degree" 0 when absent)
//	anything else           ("obs", a later version's additions) checked
//	                        against the JSON grammar and skipped
//
// Answer.Scan accepts exactly that, with JSON's whitespace anywhere, and
// rejects every other input with an error — never a panic, never more
// memory than a constant times len(body); skipped values may nest at most
// maxDepth containers deep. Whatever Scan accepts is valid JSON.
//
// Two deliberate differences from json.Unmarshal into a struct of the same
// shape: member names match exactly (encoding/json folds case, so it would
// read "URI" as "uri"; here that is an unknown member), and a known member
// that occurs twice in one object is an error (encoding/json lets the last
// one win). Bodies that hold neither agree with encoding/json list for
// list — FuzzScanShardBody pins that.
//
// Writing is byte-exact with json.Encoder under SetEscapeHTML(false),
// because gate merges and replica parity checks compare bodies across
// processes: AppendJSONString and AppendFloat are
// tested and fuzzed against encoding/json itself.
package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
)

// plain marks the bytes that stand for themselves inside a JSON string
// literal, to the writer and to the scanner alike: ASCII from 0x20 up,
// other than '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// The bytes of a uint64 word, each set to the same value.
const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// nonPlain flags, by its top bit, every byte of w that is not plain,
// plus perhaps bytes above a flagged one. A byte is flagged when it is
// below 0x20 (subtracting 0x20 wraps it to 0xE0 or up), when it is '"' or
// '\\' (XOR with that byte makes it 0, and subtracting 1 wraps that to
// 0xFF), or when its own top bit is set. Only a flagged byte borrows from
// the byte above it, so a word of plain bytes yields 0.
func nonPlain(w uint64) uint64 {
	return (w | (w - 0x20*lsbs) | ((w ^ '"'*lsbs) - lsbs) | ((w ^ '\\'*lsbs) - lsbs)) & msbs
}

// plainRun is the length of s's leading run of plain bytes, found eight
// bytes a step. In a word that holds a non-plain byte, the lowest byte
// plainWord flags is the first such byte: a borrow only ever flags bytes
// above a failing one.
func plainRun[S ~string | ~[]byte](s S) int {
	i := 0
	for ; len(s)-i >= 8; i += 8 {
		t := s[i : i+8]
		w := uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
			uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
		if m := nonPlain(w); m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(s) && plain[s[i]]; i++ {
	}
	return i
}

// AppendJSONString appends s as a JSON string literal, byte for byte what
// json.Encoder with SetEscapeHTML(false) writes. A string of plain bytes —
// every URI the generators and loaders produce — is copied between quotes;
// anything else goes through encoding/json itself, so its escaping rules
// (control bytes, U+2028/9, invalid UTF-8) are not restated here.
func AppendJSONString[S ~string | ~[]byte](b []byte, s S) []byte {
	if plainRun(s) < len(s) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(string(s)) // a string always encodes
		return append(b, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendRef appends the two leading members of a shard's neighbour object,
// `{"obs":<obs>,"uri":<uri>`, leaving the object open for the caller.
func AppendRef(b []byte, obs int, uri string) []byte {
	b = append(b, `{"obs":`...)
	b = strconv.AppendInt(b, int64(obs), 10)
	b = append(b, `,"uri":`...)
	return AppendJSONString(b, uri)
}

// AppendFloat appends a finite f exactly as encoding/json writes a
// float64: the shortest text that parses back to f, in exponent form
// (two-digit exponents trimmed to one) below 1e-6 and from 1e21 up.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b
}
