package serve

// Replication, primary side. Two endpoints turn a serving cubed into a
// leader that followers (internal/replica) can mirror:
//
//	GET /v1/snapshot          the full current state, encoded in the
//	                          snapshot wire format (per-section CRCs plus
//	                          a whole-body CRC header), with the WAL
//	                          stream position the image corresponds to
//	GET /v1/wal?from=&stream= raw CRC-framed WAL record frames starting
//	                          at a logical offset; long-polls at the tail
//
// Positions are (stream, logical offset) pairs. The stream ID is minted
// per server incarnation; logical offset L maps to physical WAL offset
// L - base + HeaderLen, where base advances every time a checkpoint
// truncates the log — so a follower's offset stays valid across
// checkpoints, and an offset from before the current stream (a primary
// restart) or below base (records now only in the snapshot) is answered
// with 410 Gone, telling the follower to bootstrap again from
// /v1/snapshot. Frames are re-validated by the follower (same CRC check
// the WAL's own recovery uses), so a cut mid-frame costs a resume, never
// corruption.
//
// Only a primary answers the two endpoints. A follower's server owns a
// log too — ApplyReplicated appends every pulled batch to it — but that
// log is its own durable chain, not its primary's stream, and nothing
// chains replication through a follower: it answers both endpoints, like
// a write, with 503 and a Leader header naming its primary.

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"rdfcube/internal/front"
	"rdfcube/internal/wal"
)

// Replication protocol headers.
const (
	// WALStreamHeader carries the primary's stream ID: logical offsets are
	// meaningful only within one stream (one primary incarnation).
	WALStreamHeader = "X-Wal-Stream"
	// WALNextHeader is the logical offset the follower should request next.
	WALNextHeader = "X-Wal-Next"
	// WALEndHeader is the primary's durable logical end offset.
	WALEndHeader = "X-Wal-End"
	// WALSeqHeader is the number of record frames the stream has carried up
	// to the durable end (snapshot responses: up to the snapshot position).
	// Followers derive their record lag from it.
	WALSeqHeader = "X-Wal-Seq"
	// WALPositionHeader, on a snapshot response, is the logical offset the
	// encoded image corresponds to: tail the WAL from here.
	WALPositionHeader = "X-Wal-Position"
	// SnapshotGenHeader is the snapshot generation id backing the primary
	// (best-effort, 0 when the primary has no rotator).
	SnapshotGenHeader = "X-Snapshot-Generation"
	// SnapshotCRCHeader is the CRC-32 (IEEE, hex) of the whole snapshot
	// body, so a follower detects a torn transfer before decoding.
	SnapshotCRCHeader = "X-Snapshot-Crc"
	// LeaderHeader, on a follower's 503 refusal of a write or a
	// replication read, names the primary base URL to talk to instead.
	LeaderHeader = "Leader"
)

// Replication counters.
const (
	CtrWALPolls      = "serve.repl.polls"          // /v1/wal requests answered
	CtrWALServed     = "serve.repl.records.served" // record frames shipped to followers
	CtrBootstraps    = "serve.repl.bootstraps"     // /v1/snapshot images served
	HistSnapshotShip = "serve.repl.snapshot.encode.us"
	// CtrFollowerBootstraps counts the snapshot bootstraps a follower
	// completed. internal/replica counts it into the registry it shares
	// with its server; /readyz and /v1/stats report it as "bootstraps".
	CtrFollowerBootstraps = "repl.bootstraps"
)

// maxWALChunk bounds one /v1/wal response body (4 MiB of frames): a far
// behind follower catches up in several requests instead of one giant
// allocation.
const maxWALChunk = 4 << 20

// maxWALWait caps the long-poll a client may request.
const maxWALWait = 30 * time.Second

// newStreamID mints the per-incarnation replication stream ID.
func newStreamID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to
		// a clock-derived ID rather than refusing to serve.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// walEndLocked reports the durable logical end offset. Callers hold at
// least the read lock and have checked wlog != nil.
func (s *Server) walEndLocked() int64 {
	return s.walBase + (s.wlog.Size() - wal.HeaderLen)
}

// notifyAppend wakes every /v1/wal long-poller. Called after a durable
// append, under the write lock.
func (s *Server) notifyAppend() {
	s.notifyMu.Lock()
	close(s.walNotify)
	s.walNotify = make(chan struct{})
	s.notifyMu.Unlock()
}

// walWait returns the channel the NEXT append will close. Grab it BEFORE
// checking the durable end: an append landing between the check and the
// wait then wakes the waiter instead of being missed.
func (s *Server) walWait() <-chan struct{} {
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	return s.walNotify
}

// handleSnapshot streams the full current state for a follower
// bootstrap. The image is encoded under the read lock (the same pause a
// checkpoint pays: writers wait, readers do not) together with the WAL
// position it corresponds to, so "apply this snapshot, then tail the WAL
// from X-Wal-Position" is exact: every record at or past the position is
// either in the image already (replay dup-skips it) or newer than it.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.follower != nil {
		s.toLeader(w, "read-only replica: replicate from the leader")
		return
	}
	start := time.Now()
	s.mu.RLock()
	data, err := s.encodeSnapshotLocked()
	var pos, seq int64
	if err == nil && s.wlog != nil {
		pos = s.walEndLocked()
		seq = s.walSeq
	}
	s.mu.RUnlock()
	if err != nil {
		s.error(w, r, http.StatusInternalServerError, "encoding snapshot: %v", err)
		return
	}
	s.rec.Observe(HistSnapshotShip, time.Since(start).Microseconds())
	s.rec.Count(CtrBootstraps, 1)

	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(data)))
	h.Set(SnapshotCRCHeader, fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)))
	if s.snapGen != nil {
		h.Set(SnapshotGenHeader, strconv.FormatUint(s.snapGen(), 10))
	}
	if s.wlog != nil {
		h.Set(WALStreamHeader, s.streamID)
		h.Set(WALPositionHeader, strconv.FormatInt(pos, 10))
		h.Set(WALSeqHeader, strconv.FormatInt(seq, 10))
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleWALTail serves raw WAL record frames from a logical offset.
//
//	?from=N     logical offset to read from (required)
//	?stream=ID  the stream the offset belongs to; a mismatch is 410
//	?wait=DUR   long-poll budget when from is at the durable end
//	            (default the server's WALPollWait, capped at 30s)
//
// Responses: 200 with zero or more whole frames (empty body after a
// long-poll timeout — the follower just polls again), 400 for an offset
// that is not a frame boundary or is past the durable end, 410 Gone when
// the offset predates the stream or the retention base (re-bootstrap
// from /v1/snapshot), 503 when the primary runs without a WAL.
func (s *Server) handleWALTail(w http.ResponseWriter, r *http.Request) {
	if s.follower != nil {
		s.toLeader(w, "read-only replica: replicate from the leader")
		return
	}
	if s.wlog == nil {
		s.error(w, r, http.StatusServiceUnavailable, "replication unavailable: primary runs without a write-ahead log")
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseInt(q.Get("from"), 10, 64)
	if err != nil || from < 0 {
		s.error(w, r, http.StatusBadRequest, "bad ?from= offset %q", q.Get("from"))
		return
	}
	if st := q.Get("stream"); st != "" && st != s.streamID {
		w.Header().Set(WALStreamHeader, s.streamID)
		s.error(w, r, http.StatusGone, "stream %q is not this primary's stream %q; bootstrap again from /v1/snapshot", st, s.streamID)
		return
	}
	wait := s.pollWait
	if ws := q.Get("wait"); ws != "" {
		if d, err := time.ParseDuration(ws); err == nil && d >= 0 {
			wait = d
		}
	}
	if wait > maxWALWait {
		wait = maxWALWait
	}
	deadline := time.Now().Add(wait)

	for {
		notify := s.walWait()
		s.mu.RLock()
		base, end := s.walBase, s.walEndLocked()
		var chunk []byte
		var rerr error
		if from >= base && from < end {
			chunk, rerr = s.wlog.ReadRange(from-base+wal.HeaderLen, maxWALChunk)
		}
		seq := s.walSeq
		s.mu.RUnlock()

		h := w.Header()
		h.Set(WALStreamHeader, s.streamID)
		h.Set(WALEndHeader, strconv.FormatInt(end, 10))
		h.Set(WALSeqHeader, strconv.FormatInt(seq, 10))

		switch {
		case from < base:
			s.error(w, r, http.StatusGone, "offset %d predates retained WAL (earliest %d); bootstrap again from /v1/snapshot", from, base)
			return
		case from > end:
			s.error(w, r, http.StatusBadRequest, "offset %d is past the durable end %d", from, end)
			return
		case from == end:
			// Caught up: wait for an append, the client going away, server
			// shutdown, or the poll budget.
			remain := time.Until(deadline)
			if remain <= 0 {
				h.Set(WALNextHeader, strconv.FormatInt(from, 10))
				h.Set("Content-Type", "application/octet-stream")
				s.rec.Count(CtrWALPolls, 1)
				w.WriteHeader(http.StatusOK)
				return
			}
			t := time.NewTimer(remain)
			select {
			case <-notify:
				t.Stop()
				continue
			case <-t.C:
				continue
			case <-r.Context().Done():
				t.Stop()
				s.rec.Count(CtrCanceled, 1)
				s.error(w, r, cancelStatus(r.Context().Err()), "request abandoned: %v", r.Context().Err())
				return
			case <-s.runCtx.Done():
				t.Stop()
				h.Set(WALNextHeader, strconv.FormatInt(from, 10))
				w.WriteHeader(http.StatusOK)
				return
			}
		default:
			if rerr != nil {
				if errorsIsNotBoundary(rerr) {
					s.error(w, r, http.StatusBadRequest, "offset %d is not a record boundary", from)
					return
				}
				s.error(w, r, http.StatusInternalServerError, "reading wal: %v", rerr)
				return
			}
			recs, good, perr := wal.ParseFrames(chunk)
			if perr != nil && good == 0 {
				s.error(w, r, http.StatusInternalServerError, "wal corrupt at offset %d: %v", from, perr)
				return
			}
			h.Set(WALNextHeader, strconv.FormatInt(from+good, 10))
			h.Set("Content-Type", "application/octet-stream")
			h.Set("Content-Length", strconv.FormatInt(good, 10))
			s.rec.Count(CtrWALPolls, 1)
			s.rec.Count(CtrWALServed, int64(len(recs)))
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(chunk[:good])
			return
		}
	}
}

func errorsIsNotBoundary(err error) bool {
	return errors.Is(err, wal.ErrNotBoundary)
}

// FollowerState is the live replication posture a follower (see
// internal/replica) shares with its serve.Server: the serving layer reads
// it to reject writes with a leader hint, report lag in /readyz and
// /v1/stats, and flip readiness when staleness exceeds the bound. All
// methods are safe for concurrent use.
type FollowerState struct {
	// Leader is the primary's base URL, echoed in the Leader header of
	// every rejected write.
	Leader string
	// MaxStaleness flips /readyz to 503 once the follower has not been
	// caught up with the primary for this long. Zero never trips.
	MaxStaleness time.Duration

	lagRecords   atomic.Int64
	offset       atomic.Int64
	lastCaughtUp atomic.Int64 // UnixNano of the last caught-up moment
	connected    atomic.Bool
}

// SetOffset records the follower's applied logical WAL offset.
func (f *FollowerState) SetOffset(v int64) { f.offset.Store(v) }

// Offset reports the applied logical WAL offset.
func (f *FollowerState) Offset() int64 { return f.offset.Load() }

// SetLagRecords records how many record frames the follower is behind.
func (f *FollowerState) SetLagRecords(v int64) { f.lagRecords.Store(v) }

// LagRecords reports the record-frame lag.
func (f *FollowerState) LagRecords() int64 { return f.lagRecords.Load() }

// MarkCaughtUp records that the follower was level with the primary's
// durable end just now.
func (f *FollowerState) MarkCaughtUp() {
	f.lagRecords.Store(0)
	f.lastCaughtUp.Store(time.Now().UnixNano())
}

// SetConnected records whether the replication link is up.
func (f *FollowerState) SetConnected(up bool) { f.connected.Store(up) }

// Connected reports whether the replication link is up.
func (f *FollowerState) Connected() bool { return f.connected.Load() }

// Staleness is the wall-clock time since the follower was last level
// with the primary.
func (f *FollowerState) Staleness() time.Duration {
	at := f.lastCaughtUp.Load()
	if at == 0 {
		return time.Duration(1<<63 - 1) // never caught up
	}
	return time.Since(time.Unix(0, at))
}

// Stale reports whether staleness exceeds the configured bound.
func (f *FollowerState) Stale() bool {
	return f.MaxStaleness > 0 && f.Staleness() > f.MaxStaleness
}

// toLeader answers a request only the primary serves — a write, or a
// replication read — on a follower: 503 plus the Leader header naming
// where it goes.
func (s *Server) toLeader(w http.ResponseWriter, msg string) {
	w.Header().Set(LeaderHeader, s.follower.Leader)
	front.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{
		"error":  msg,
		"leader": s.follower.Leader,
	})
}
