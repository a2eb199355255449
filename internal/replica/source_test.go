package replica

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rdfcube/internal/core"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/gen"
	"rdfcube/internal/rdf"
	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
)

// scriptedPrimary is an httptest primary whose two replication routes do
// whatever the current table row says, and which remembers the last
// /v1/wal query it was asked.
type scriptedPrimary struct {
	ts       *httptest.Server
	snapshot http.HandlerFunc
	tail     http.HandlerFunc
	lastFrom string
	lastStrm string
}

func newScriptedPrimary(t *testing.T) *scriptedPrimary {
	t.Helper()
	p := &scriptedPrimary{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) { p.snapshot(w, r) })
	mux.HandleFunc("GET /v1/wal", func(w http.ResponseWriter, r *http.Request) {
		p.lastFrom, p.lastStrm = r.URL.Query().Get("from"), r.URL.Query().Get("stream")
		p.tail(w, r)
	})
	p.ts = httptest.NewServer(mux)
	t.Cleanup(p.ts.Close)
	return p
}

func (p *scriptedPrimary) source() *Source {
	return &Source{Primary: p.ts.URL, Client: p.ts.Client()}
}

// testFrames returns n encoded WAL frames, each as the primary would
// ship it.
func testFrames(t *testing.T, n int) (frames [][]byte) {
	t.Helper()
	mem := faultfs.NewMemFS()
	w, _, err := wal.Open(mem, "w")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	prev := int(wal.HeaderLen)
	for i := 0; i < n; i++ {
		rec := wal.Record{
			Dataset:       i % 3,
			URI:           rdf.NewIRI(fmt.Sprintf("http://example.org/obs/frame-%d", i)),
			DimValues:     []rdf.Term{gen.GeoAthens, gen.TimeJan},
			MeasureValues: []rdf.Term{rdf.NewLiteral(strconv.Itoa(i))},
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		data, err := mem.ReadFile("w")
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, data[prev:])
		prev = len(data)
	}
	return frames
}

func join(bs ...[]byte) []byte {
	var out []byte
	for _, b := range bs {
		out = append(out, b...)
	}
	return out
}

// tailAnswer answers 200 with the replication headers and body; declared
// > len(body) makes the server cut the connection after the body, which
// the client sees as a response truncated mid-stream.
func tailAnswer(body []byte, declared int, end, seq int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.WALStreamHeader, "s1")
		w.Header().Set(serve.WALEndHeader, strconv.FormatInt(end, 10))
		w.Header().Set(serve.WALSeqHeader, strconv.FormatInt(seq, 10))
		w.Header().Set("Content-Length", strconv.Itoa(declared))
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}
}

func uris(recs []wal.Record) string {
	var out []string
	for _, r := range recs {
		out = append(out, strings.TrimPrefix(r.URI.Value, "http://example.org/obs/"))
	}
	return strings.Join(out, ",")
}

// TestSourcePollProtocol walks the tail half of the protocol against a
// scripted primary: what moves the cursor, what does not, and what is
// ErrGone.
func TestSourcePollProtocol(t *testing.T) {
	f := testFrames(t, 3)
	corrupt := append([]byte(nil), f[0]...)
	corrupt[6] ^= 0xff // inside the payload: the frame is complete, its CRC no longer holds
	start := Cursor{Stream: "s1", Offset: 100, Seq: 7}
	all := int64(len(f[0]) + len(f[1]) + len(f[2]))
	boom := errors.New("boom")

	type step struct {
		tail     http.HandlerFunc
		applyErr error
		// expectations
		wantErr   error // matched with errors.Is; errAny means "any error that is not ErrGone"
		wantApply string
		wantTail  Tail
		wantCur   Cursor
		wantFrom  string
	}
	errAny := errors.New("any non-ErrGone error")
	gone := func(hdr map[string]string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			for k, v := range hdr {
				w.Header().Set(k, v)
			}
			http.Error(w, `{"error":"gone"}`, http.StatusGone)
		}
	}
	after := func(n int) Cursor {
		c := start
		for i := 0; i < n; i++ {
			c.Offset += int64(len(f[i]))
			c.Seq++
		}
		return c
	}

	cases := []struct {
		name  string
		steps []step
	}{
		{"empty long-poll is a no-op", []step{{
			tail:     tailAnswer(nil, 0, 100, 7),
			wantTail: Tail{CaughtUp: true}, wantCur: start, wantFrom: "100",
		}}},
		{"whole frames advance the cursor", []step{{
			tail:      tailAnswer(join(f[0], f[1]), len(f[0])+len(f[1]), 100+all, 10),
			wantApply: "frame-0,frame-1", wantTail: Tail{Records: 2, Lag: 1}, wantCur: after(2), wantFrom: "100",
		}, {
			tail:      tailAnswer(f[2], len(f[2]), 100+all, 10),
			wantApply: "frame-2", wantTail: Tail{Records: 1, CaughtUp: true}, wantCur: after(3),
			wantFrom: strconv.FormatInt(after(2).Offset, 10),
		}}},
		{"cut mid-frame keeps the complete prefix and resumes there", []step{{
			tail:      tailAnswer(join(f[0], f[1], f[2][:len(f[2])/2]), int(all), 100+all, 10),
			wantApply: "frame-0,frame-1", wantTail: Tail{Records: 2, Lag: 1}, wantCur: after(2), wantFrom: "100",
		}, {
			tail:      tailAnswer(f[2], len(f[2]), 100+all, 10),
			wantApply: "frame-2", wantTail: Tail{Records: 1, CaughtUp: true}, wantCur: after(3),
			wantFrom: strconv.FormatInt(after(2).Offset, 10),
		}}},
		{"cut inside the first frame is an error, not progress", []step{{
			tail:    tailAnswer(f[0][:len(f[0])-3], int(all), 100+all, 10),
			wantErr: errAny, wantCur: start, wantFrom: "100",
		}}},
		{"corrupt complete first frame is gone", []step{{
			tail:    tailAnswer(join(corrupt, f[1]), len(corrupt)+len(f[1]), 100+all, 10),
			wantErr: ErrGone, wantCur: start, wantFrom: "100",
		}}},
		{"good frames before a corrupt one are kept, then it is gone", []step{{
			tail:      tailAnswer(join(f[1], corrupt), len(f[1])+len(corrupt), 100+all, 10),
			wantApply: "frame-1", wantTail: Tail{Records: 1, Lag: 2},
			wantCur: Cursor{Stream: "s1", Offset: 100 + int64(len(f[1])), Seq: 8}, wantFrom: "100",
		}, {
			tail:    tailAnswer(corrupt, len(corrupt), 100+all, 10),
			wantErr: ErrGone, wantCur: Cursor{Stream: "s1", Offset: 100 + int64(len(f[1])), Seq: 8},
			wantFrom: strconv.FormatInt(100+int64(len(f[1])), 10),
		}}},
		{"410 on stream mismatch is gone", []step{{
			tail:    gone(map[string]string{serve.WALStreamHeader: "s2"}),
			wantErr: ErrGone, wantCur: start, wantFrom: "100",
		}}},
		{"410 on an offset below the retained base is gone", []step{{
			tail:    gone(map[string]string{serve.WALStreamHeader: "s1", serve.WALEndHeader: "900", serve.WALSeqHeader: "40"}),
			wantErr: ErrGone, wantCur: start, wantFrom: "100",
		}}},
		{"apply error leaves the cursor and re-offers the same records", []step{{
			tail:     tailAnswer(join(f[0], f[1]), len(f[0])+len(f[1]), 100+all, 10),
			applyErr: boom, wantErr: boom, wantApply: "frame-0,frame-1", wantCur: start, wantFrom: "100",
		}, {
			tail:      tailAnswer(join(f[0], f[1]), len(f[0])+len(f[1]), 100+all, 10),
			wantApply: "frame-0,frame-1", wantTail: Tail{Records: 2, Lag: 1}, wantCur: after(2), wantFrom: "100",
		}}},
		{"a refusal is an error, not gone", []step{{
			tail:    func(w http.ResponseWriter, r *http.Request) { http.Error(w, "no wal", http.StatusServiceUnavailable) },
			wantErr: errAny, wantCur: start, wantFrom: "100",
		}}},
		{"a 200 without the durable end is refused before anything is applied", []step{{
			tail: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set(serve.WALSeqHeader, "10")
				w.Write(f[0])
			},
			wantErr: errAny, wantCur: start, wantFrom: "100",
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newScriptedPrimary(t)
			src := p.source()
			src.Seek(start)
			for i, st := range tc.steps {
				p.tail = st.tail
				applied := ""
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				tail, err := src.Poll(ctx, 0, func(recs []wal.Record) error {
					applied = uris(recs)
					return st.applyErr
				})
				cancel()
				switch {
				case st.wantErr == nil && err != nil:
					t.Fatalf("step %d: unexpected error: %v", i, err)
				case st.wantErr == errAny && (err == nil || errors.Is(err, ErrGone)):
					t.Fatalf("step %d: err = %v, want an error that is not ErrGone", i, err)
				case st.wantErr != nil && st.wantErr != errAny && !errors.Is(err, st.wantErr):
					t.Fatalf("step %d: err = %v, want %v", i, err, st.wantErr)
				}
				if applied != st.wantApply {
					t.Fatalf("step %d: apply saw %q, want %q", i, applied, st.wantApply)
				}
				if tail != st.wantTail {
					t.Fatalf("step %d: tail %+v, want %+v", i, tail, st.wantTail)
				}
				if got := src.Cursor(); got != st.wantCur {
					t.Fatalf("step %d: cursor %+v, want %+v", i, got, st.wantCur)
				}
				if p.lastFrom != st.wantFrom || p.lastStrm != "s1" {
					t.Fatalf("step %d: primary was asked from=%s stream=%s, want from=%s stream=s1", i, p.lastFrom, p.lastStrm, st.wantFrom)
				}
			}
		})
	}
}

// TestSourceBootstrapProtocol walks the snapshot half: every way a
// transfer can be unusable leaves the cursor where it was and never
// reaches install; a usable one moves the cursor only after install
// returned nil.
func TestSourceBootstrapProtocol(t *testing.T) {
	s, res, err := core.ComputeCorpusCtx(context.Background(), gen.PaperExample(), core.AlgorithmCubeMasking, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	image, err := snapshot.New(s, res, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	crc := fmt.Sprintf("%08x", crc32.ChecksumIEEE(image))
	good := map[string]string{
		serve.SnapshotCRCHeader: crc, serve.WALStreamHeader: "s1",
		serve.WALPositionHeader: "172", serve.WALSeqHeader: "3", serve.SnapshotGenHeader: "4",
	}
	with := func(k, v string) map[string]string {
		h := map[string]string{}
		for hk, hv := range good {
			h[hk] = hv
		}
		if v == "" {
			delete(h, k)
		} else {
			h[k] = v
		}
		return h
	}
	answer := func(status int, hdr map[string]string, body []byte) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			for k, v := range hdr {
				w.Header().Set(k, v)
			}
			w.WriteHeader(status)
			w.Write(body)
		}
	}
	old := Cursor{Stream: "s0", Offset: 5, Seq: 1}
	at := Cursor{Stream: "s1", Offset: 172, Seq: 3}
	garbage := []byte("this is not a snapshot")

	cases := []struct {
		name       string
		snapshot   http.HandlerFunc
		cap        int64
		installErr error
		wantErr    string // substring; "" means success
		installed  bool
	}{
		{name: "verified image commits", snapshot: answer(200, good, image), installed: true},
		{name: "no CRC header is accepted", snapshot: answer(200, with(serve.SnapshotCRCHeader, ""), image), installed: true},
		{name: "install error keeps the cursor", snapshot: answer(200, good, image), installErr: errors.New("disk full"), wantErr: "disk full", installed: true},
		{name: "body over the cap", snapshot: answer(200, good, image), cap: int64(len(image)) - 1, wantErr: "exceeds"},
		{name: "CRC mismatch", snapshot: answer(200, with(serve.SnapshotCRCHeader, "deadbeef"), image), wantErr: "CRC mismatch"},
		{name: "missing stream: the primary has no WAL", snapshot: answer(200, with(serve.WALStreamHeader, ""), image), wantErr: "does not replicate"},
		{name: "malformed position", snapshot: answer(200, with(serve.WALPositionHeader, "12x"), image), wantErr: serve.WALPositionHeader},
		{name: "missing position", snapshot: answer(200, with(serve.WALPositionHeader, ""), image), wantErr: serve.WALPositionHeader},
		{name: "undecodable image", snapshot: answer(200, with(serve.SnapshotCRCHeader, fmt.Sprintf("%08x", crc32.ChecksumIEEE(garbage))), garbage), wantErr: "decoding snapshot"},
		{name: "refusal", snapshot: answer(503, nil, []byte("loading")), wantErr: "503"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newScriptedPrimary(t)
			p.snapshot = tc.snapshot
			src := p.source()
			src.snapshotCap = tc.cap
			src.Seek(old)
			installed := false
			err := src.Bootstrap(context.Background(), func(img Image) error {
				installed = true
				if img.At != at || img.Generation != "4" || img.Snapshot.Space.N() != s.N() || len(img.Data) != len(image) {
					t.Errorf("image: at %+v gen %q n %d len %d", img.At, img.Generation, img.Snapshot.Space.N(), len(img.Data))
				}
				if src.Cursor() != old {
					t.Errorf("cursor moved to %+v before install returned", src.Cursor())
				}
				return tc.installErr
			})
			if installed != tc.installed {
				t.Fatalf("install called = %v, want %v (err %v)", installed, tc.installed, err)
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if src.Cursor() != at {
					t.Fatalf("cursor %+v after a committed bootstrap, want %+v", src.Cursor(), at)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.wantErr)
			}
			if src.Cursor() != old {
				t.Fatalf("cursor moved to %+v on a failed bootstrap", src.Cursor())
			}
		})
	}
}
