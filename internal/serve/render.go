package serve

import (
	"net/http"
	"strconv"
	"strings"
	"sync"

	"rdfcube/internal/wire"
)

// The fan-out routes (/v1/related, /v1/contains, /v1/complements) render
// their 200 bodies by appending to one pooled []byte instead of handing a
// map[string]any of freshly allocated neighbour slices to encoding/json.
// The bytes are exactly what json.Encoder with SetEscapeHTML(false) wrote
// for that map — keys in sorted order, one trailing newline — because
// gate merges and replica parity checks compare bodies across processes.
// The string, neighbour and float helpers live in internal/wire, beside
// the scanner cubegate reads these bodies with.
//
// Every observation's neighbour fragment, `{"obs":i,"uri":"…"`, is
// rendered once, when the observation enters the served state (New,
// applyInsertLocked, through wire.AppendRef); a read copies fragments and
// never escapes or formats a URI or an index again.

// maxPooledBody is the largest response buffer returned to bodyPool; a
// larger one (a hub observation's answer) is left to the GC so one outlier
// does not pin its capacity for the life of the process.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// getBody takes an empty response buffer from the pool; the handler hands
// the (possibly regrown) buffer back through putBody when it is done.
func getBody() (*[]byte, []byte) {
	bp := bodyPool.Get().(*[]byte)
	return bp, (*bp)[:0]
}

func putBody(bp *[]byte, b []byte) {
	if cap(b) > maxPooledBody {
		return
	}
	*bp = b[:0]
	bodyPool.Put(bp)
}

// writeBody sends a rendered 200 body (boundWrite bounds the send).
func (s *Server) writeBody(w http.ResponseWriter, b []byte) {
	s.boundWrite(w)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // a failed write means the client is gone: nobody to tell
}

// degreeTexts pre-renders the JSON text of every degree a partial pair
// over p dimensions can take: entry k is k/p exactly as encoding/json
// writes that float64. With no dimensions there is no partial pair to
// render, and the table's one entry (0/0) is never read.
func degreeTexts(p int) []string {
	out := make([]string, p+1)
	for k := range out {
		out[k] = string(wire.AppendFloat(nil, float64(k)/float64(p)))
	}
	return out
}

// appendRefs appends ids as a JSON array of {obs, uri} objects. Callers
// hold at least the read lock.
func (s *Server) appendRefs(b []byte, ids []int32) []byte {
	b = append(b, '[')
	for k, j := range ids {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, s.refs[j]...)
		b = append(b, '}')
	}
	return append(b, ']')
}

// degreeChunk is how many neighbours appendPartialRefs derives degrees for
// per kernel call: a fixed buffer on the stack, so a read allocates the
// same whatever the fan-out (most lists fit in one chunk).
const degreeChunk = 512

// appendPartialRefs appends from's partial-containment neighbours as a
// JSON array of {obs, uri, degree} objects, for the ordered direction
// (fromIsSource: from contains the neighbour). The degree of
// Cont_partial(a, b) is the normalised OCM cell ContainDegree(a, b)/|P| —
// a function of the two observations' code rows, the same division every
// kernel performs when it emits the pair (core's TestDerivedDegreeLicence
// pins the equality; nothing stores the result) — so it is derived from
// the Space, one Space.ContainDegrees pass over the list per chunk, and
// looked up in the pre-rendered degText table.
func (s *Server) appendPartialRefs(b []byte, from int, ids []int32, fromIsSource bool) []byte {
	var deg [degreeChunk]int32
	b = append(b, '[')
	for lo := 0; lo < len(ids); lo += degreeChunk {
		chunk := ids[lo:min(lo+degreeChunk, len(ids))]
		s.inc.S.ContainDegrees(from, chunk, fromIsSource, deg[:])
		for k, j := range chunk {
			if lo+k > 0 {
				b = append(b, ',')
			}
			b = append(b, s.refs[j]...)
			b = append(b, `,"degree":`...)
			b = append(b, s.degText[deg[k]]...)
			b = append(b, '}')
		}
	}
	return append(b, ']')
}

// appendObsMember appends `,"obs":<i>`, the queried observation's index.
func appendObsMember(b []byte, i int) []byte {
	b = append(b, `,"obs":`...)
	return strconv.AppendInt(b, int64(i), 10)
}

// appendEnd closes a fan-out answer: `"uri"` of the queried observation
// sorts last in all three routes — copied from the observation's own
// fragment, whose first comma opens it — then the object ends and
// json.Encoder's newline follows.
func (s *Server) appendEnd(b []byte, i int) []byte {
	f := s.refs[i]
	b = append(b, f[strings.IndexByte(f, ','):]...)
	return append(b, "}\n"...)
}
