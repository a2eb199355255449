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
// because gate merges, replica parity checks and the migration double-read
// compare bodies across processes: AppendJSONString and AppendFloat are
// tested and fuzzed against encoding/json itself.
package wire

import (
	"bytes"
	"encoding/json"
	"math"
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

// AppendJSONString appends s as a JSON string literal, byte for byte what
// json.Encoder with SetEscapeHTML(false) writes. A string of plain bytes —
// every URI the generators and loaders produce — is copied between quotes;
// anything else goes through encoding/json itself, so its escaping rules
// (control bytes, U+2028/9, invalid UTF-8) are not restated here.
func AppendJSONString[S ~string | ~[]byte](b []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(string(s)) // a string always encodes
			return append(b, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
		}
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
