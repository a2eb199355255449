package replica

// Source is the one client of the replication protocol whose server side
// is internal/serve/repl.go: GET /v1/snapshot for a full image, GET
// /v1/wal for the record frames after it. A Follower is a Source plus a
// local chain plus a serve.Server; a gate migration is a Source plus a
// dataset filter plus a remote POST. Both get the same rule from here,
// written once:
//
//	the cursor moves only after the caller has committed what it was
//	handed — the image installed AND persisted for Bootstrap, apply
//	returning nil for Poll — and a position the primary no longer holds
//	(410, or a corrupt frame AT the cursor) is ErrGone: bootstrap again.
//
// A copy that follows the rule holds every observation up to its cursor
// or has not moved its cursor: it can be behind, never holed.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"rdfcube/internal/serve"
	"rdfcube/internal/snapshot"
	"rdfcube/internal/wal"
)

// ErrGone reports that the primary cannot serve the cursor any more: it
// answered 410 (another stream — the primary restarted or was replaced —
// or an offset its checkpoints have truncated away), or the first frame
// at the cursor is complete but corrupt, which no retry will fix. The
// only way forward is Bootstrap.
var ErrGone = errors.New("replica: position gone; bootstrap again from /v1/snapshot")

const (
	// maxSnapshotBody bounds a bootstrap transfer (1 GiB, the snapshot
	// section limit).
	maxSnapshotBody = 1 << 30
	// maxWALBody bounds one tail response (the primary chunks at 4 MiB;
	// the slack tolerates growth).
	maxWALBody = 8 << 20
)

// Cursor is a replication position minted by a primary: the stream names
// one primary incarnation, Offset is the logical WAL offset (it keeps
// advancing across the primary's checkpoint truncations) and Seq the
// number of record frames the stream carried up to it. It is also the
// follower's position-file format.
type Cursor struct {
	Stream string `json:"stream"`
	Offset int64  `json:"offset"`
	Seq    int64  `json:"seq"`
}

// Image is one bootstrap transfer.
type Image struct {
	// Data is the encoded snapshot (whole-body CRC verified when the
	// primary sent one); Snapshot is Data decoded.
	Data     []byte
	Snapshot *snapshot.Snapshot
	// At is the position the image corresponds to: every record before it
	// is in the image, so tailing resumes here.
	At Cursor
	// Generation is the primary's snapshot generation id, "" when it sent
	// none. Informational.
	Generation string
}

// Tail is what one Poll learned.
type Tail struct {
	// Records is how many frames this poll handed to apply.
	Records int
	// CaughtUp says the cursor has reached the primary's durable end.
	CaughtUp bool
	// Lag is how many record frames the primary holds past the cursor.
	Lag int64
}

// Source reads one primary. The zero cursor means "nothing yet": call
// Bootstrap (or Seek, with a position recovered from durable state)
// before Poll. A Source is not safe for concurrent use.
type Source struct {
	// Primary is the base URL requests go to (no trailing slash). The owner
	// may repoint it between calls — a gate follows its shard map — because
	// the stream id in the cursor fences it: another incarnation answers
	// 410, never frames from a different history.
	Primary string
	// Client issues the requests. Each call runs under the context it is
	// given, so a client-wide Timeout must be 0 or above the poll wait.
	Client *http.Client
	// Logf receives the one thing the caller cannot see in a result (a cut
	// response whose complete prefix was kept); nil discards it.
	Logf func(format string, a ...any)

	cur Cursor
	// snapshotCap overrides maxSnapshotBody; tests shrink it.
	snapshotCap int64
}

// Cursor returns the position of the last commit.
func (s *Source) Cursor() Cursor { return s.cur }

// Seek adopts a position the caller recovered from its own durable
// state. A position the primary no longer holds costs one ErrGone.
func (s *Source) Seek(c Cursor) { s.cur = c }

func (s *Source) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.Primary+path, nil)
	if err != nil {
		return nil, err
	}
	return s.Client.Do(req)
}

// refusal renders a non-200 answer for an error message.
func refusal(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // best effort: the status is the message
	return fmt.Sprintf("%d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

// headerInt parses a required integer replication header.
func headerInt(resp *http.Response, name string) (int64, error) {
	v, err := strconv.ParseInt(resp.Header.Get(name), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s header %q", name, resp.Header.Get(name))
	}
	return v, nil
}

// Bootstrap pulls the primary's full image, verifies and decodes it, and
// hands it to install together with the position it names. The cursor
// moves to that position only when install returns nil — install must
// therefore finish everything that makes the image the caller's state
// (persist it, swap it in, copy it out) before returning. On any error
// the cursor is where it was.
func (s *Source) Bootstrap(ctx context.Context, install func(Image) error) error {
	resp, err := s.get(ctx, "/v1/snapshot")
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bootstrap: primary answered %s", refusal(resp))
	}
	limit := s.snapshotCap
	if limit <= 0 {
		limit = maxSnapshotBody
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return fmt.Errorf("bootstrap: reading snapshot: %w", err)
	}
	if int64(len(data)) > limit {
		return fmt.Errorf("bootstrap: snapshot exceeds %d bytes", limit)
	}
	if want := resp.Header.Get(serve.SnapshotCRCHeader); want != "" {
		if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)); got != want {
			return fmt.Errorf("bootstrap: snapshot CRC mismatch: got %s want %s (torn transfer?)", got, want)
		}
	}
	at := Cursor{Stream: resp.Header.Get(serve.WALStreamHeader)}
	if at.Stream == "" {
		return fmt.Errorf("bootstrap: primary %s does not replicate (no %s header — is it running with a WAL?)",
			s.Primary, serve.WALStreamHeader)
	}
	if at.Offset, err = headerInt(resp, serve.WALPositionHeader); err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	if at.Seq, err = headerInt(resp, serve.WALSeqHeader); err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	sn, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("bootstrap: decoding snapshot: %w", err)
	}
	img := Image{Data: data, Snapshot: sn, At: at, Generation: resp.Header.Get(serve.SnapshotGenHeader)}
	if err := install(img); err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	s.cur = at
	return nil
}

// Poll asks the primary for the frames after the cursor, long-polling up
// to wait at the durable end, re-validates them (the CRC check WAL
// recovery uses) and hands the decoded records to apply. The cursor
// advances over exactly those records, and only when apply returns nil;
// apply's error is returned as it is, so a caller that wants a bootstrap
// wraps ErrGone. A response cut mid-frame keeps its complete prefix (the
// next Poll resumes at the last good frame); an empty long-poll calls
// nothing and moves nothing. ctx bounds the whole exchange: give it the
// wait plus what the caller allows the network.
func (s *Source) Poll(ctx context.Context, wait time.Duration, apply func([]wal.Record) error) (Tail, error) {
	q := url.Values{
		"from":   {strconv.FormatInt(s.cur.Offset, 10)},
		"stream": {s.cur.Stream},
		"wait":   {wait.String()},
	}
	resp, err := s.get(ctx, "/v1/wal?"+q.Encode())
	if err != nil {
		return Tail{}, fmt.Errorf("tail: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return Tail{}, fmt.Errorf("%w (cursor %s@%d, primary stream %q): %s",
			ErrGone, s.cur.Stream, s.cur.Offset, resp.Header.Get(serve.WALStreamHeader), refusal(resp))
	default:
		return Tail{}, fmt.Errorf("tail: primary answered %s", refusal(resp))
	}
	end, err := headerInt(resp, serve.WALEndHeader)
	if err != nil {
		return Tail{}, fmt.Errorf("tail: %w", err)
	}
	seqEnd, err := headerInt(resp, serve.WALSeqHeader)
	if err != nil {
		return Tail{}, fmt.Errorf("tail: %w", err)
	}

	data, cut := io.ReadAll(io.LimitReader(resp.Body, maxWALBody))
	// A torn tail parses as a shorter prefix; a corrupt COMPLETE frame is
	// an error. With good frames before it the prefix is still applied and
	// the next Poll meets the bad frame at the cursor.
	recs, good, perr := wal.ParseFrames(data)
	switch {
	case perr != nil && good == 0:
		return Tail{}, fmt.Errorf("%w (frame at %s@%d corrupt: %v)", ErrGone, s.cur.Stream, s.cur.Offset, perr)
	case cut != nil && len(recs) == 0:
		return Tail{}, fmt.Errorf("tail: response cut before one complete frame: %w", cut)
	case cut != nil && s.Logf != nil:
		s.Logf("replica: tail response cut (%v); keeping the %d complete frames before it", cut, len(recs))
	}
	if len(recs) > 0 {
		if err := apply(recs); err != nil {
			return Tail{}, err
		}
	}
	s.cur.Offset += good
	s.cur.Seq += int64(len(recs))
	return Tail{
		Records:  len(recs),
		CaughtUp: s.cur.Offset >= end, // end == 0 is a WAL with no records yet: cursor 0 IS caught up
		Lag:      max(seqEnd-s.cur.Seq, 0),
	}, nil
}
