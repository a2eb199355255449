package serve

import (
	"net/http"
	"strconv"
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

// writeBody sends a rendered 200 body.
func writeBody(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
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
	obs := s.inc.S.Obs
	b = append(b, '[')
	for k, j := range ids {
		if k > 0 {
			b = append(b, ',')
		}
		b = wire.AppendRef(b, int(j), obs[j].URI.Value)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendPartialRefs appends from's partial-containment neighbours as a
// JSON array of {obs, uri, degree} objects, for the ordered direction
// (fromIsSource: from contains the neighbour). The degree of
// Cont_partial(a, b) is the normalised OCM cell ContainDegree(a, b)/|P| —
// a function of the two observations' code rows, the same division every
// kernel performs when it emits the pair (core's TestDerivedDegreeLicence
// pins the equality; nothing stores the result) — so it is read off the
// Space and looked up in the pre-rendered degText table.
func (s *Server) appendPartialRefs(b []byte, from int, ids []int32, fromIsSource bool) []byte {
	sp := s.inc.S
	b = append(b, '[')
	for k, j := range ids {
		if k > 0 {
			b = append(b, ',')
		}
		deg := 0
		if fromIsSource {
			deg = sp.ContainDegree(from, int(j))
		} else {
			deg = sp.ContainDegree(int(j), from)
		}
		b = wire.AppendRef(b, int(j), sp.Obs[j].URI.Value)
		b = append(b, `,"degree":`...)
		b = append(b, s.degText[deg]...)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendObsMember appends `,"obs":<i>`, the queried observation's index.
func appendObsMember(b []byte, i int) []byte {
	b = append(b, `,"obs":`...)
	return strconv.AppendInt(b, int64(i), 10)
}

// appendEnd closes a fan-out answer: `"uri"` of the queried observation
// sorts last in all three routes, then the object ends and json.Encoder's
// newline follows.
func (s *Server) appendEnd(b []byte, i int) []byte {
	b = append(b, `,"uri":`...)
	b = wire.AppendJSONString(b, s.inc.S.Obs[i].URI.Value)
	return append(b, "}\n"...)
}
