package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unicode/utf8"
)

func encodeNoHTMLEscape(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// checkJSONString: the literal written for s is encoding/json's, and the
// scanner reads it back as the string encoding/json would decode — s
// itself when s is valid UTF-8.
func checkJSONString(t testing.TB, s string) {
	t.Helper()
	lit := AppendJSONString([]byte("prefix:"), s)[len("prefix:"):]
	if want := encodeNoHTMLEscape(t, s); !bytes.Equal(lit, want) {
		t.Fatalf("AppendJSONString(%q) = %q, encoding/json writes %q", s, lit, want)
	}
	if fromBytes := AppendJSONString(nil, []byte(s)); !bytes.Equal(fromBytes, lit) {
		t.Fatalf("AppendJSONString([]byte(%q)) = %q, from the string %q", s, fromBytes, lit)
	}
	sc := scanner{b: lit}
	back, err := sc.str()
	if err != nil || sc.pos != len(lit) {
		t.Fatalf("scanning %q: %q, stopped at %d, err %v", lit, back, sc.pos, err)
	}
	var want string
	if err := json.Unmarshal(lit, &want); err != nil {
		t.Fatal(err)
	}
	if string(back) != want || utf8.ValidString(s) && want != s {
		t.Fatalf("%q scans back as %q, encoding/json decodes %q", lit, back, want)
	}
}

// TestAppendJSONString pins the fast path and the fallback on the hostile
// inputs (the fuzz target below explores beyond them).
func TestAppendJSONString(t *testing.T) {
	for _, s := range append([]string{"http://example.org/obs/plain~ !#$%'()*+,-./:;=?@[]^_`{|}"}, HostileStrings...) {
		checkJSONString(t, s)
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range HostileStrings {
		f.Add(s)
	}
	f.Add("http://example.org/obs/17")
	f.Fuzz(func(t *testing.T, s string) { checkJSONString(t, s) })
}

// TestAppendFloat compares the float text with encoding/json's on the
// degrees serve renders, the format's cut-over points and random bit
// patterns.
func TestAppendFloat(t *testing.T) {
	fs := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 0.999999e-6, 1e-7, 1.5e-9, 1e20, 1e21, 1.5e21, -1e21,
		1e100, 1e-100, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125}
	for p := 1; p <= 12; p++ {
		for k := 0; k <= p; k++ {
			fs = append(fs, float64(k)/float64(p))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for len(fs) < 5000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			fs = append(fs, f)
		}
	}
	for _, f := range fs {
		if got, want := AppendFloat(nil, f), encodeNoHTMLEscape(t, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%b) = %s, encoding/json writes %s", f, got, want)
		}
	}
}

// TestCommonPrefix: commonPrefix, which the radix sort skips by, agrees
// with its byte-at-a-time definition on random pairs of short strings
// over a small alphabet (so that prefixes run long).
func TestCommonPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	str := func() []byte {
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = "\x00ab"[rng.Intn(3)]
		}
		return b
	}
	for range 20000 {
		a, b := str(), str()
		if rng.Intn(2) == 0 {
			b = append(slices.Clone(a[:rng.Intn(len(a)+1)]), b...)
		}
		want := 0
		for want < len(a) && want < len(b) && a[want] == b[want] {
			want++
		}
		if got := commonPrefix(a, b); got != want {
			t.Fatalf("commonPrefix(%q, %q) = %d, want %d", a, b, got, want)
		}
	}
}
