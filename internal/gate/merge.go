package gate

import (
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"rdfcube/internal/front"
	"rdfcube/internal/serve"
	"rdfcube/internal/wire"
)

// The gate's merged read responses. Member order is fixed, neighbor lists
// are sorted by URI, and shard-local observation indices are discarded
// entirely — three choices that together make the merged bytes
// independent of shard reply order, of which target won a hedge, and of
// how datasets are distributed over shards (given relationship-closed
// sharding). The explicit "partial" member is the degradation contract: a
// client can always tell a complete answer from one missing shards'
// contributions.
//
// Nothing on the 200 path reflects: shard bodies are read by wire's
// scanner into neighbour lists that alias the (pooled) body buffers, the
// merge is a sort + compact on URI bytes, and the answer is appended into
// a pooled buffer with wire's writers — byte for byte what encoding/json
// wrote for the response structs this replaced (merge_oracle_test.go keeps
// those as the oracle).

// readRoute is one of the three fan-out reads: the path scattered to the
// shards — the client's own route, so a shard renders and ships only the
// lists the client asked for — and the lists of the merged answer, in the
// order they are written.
type readRoute struct {
	path  string
	lists []wire.List
}

var (
	routeRelated = readRoute{"/v1/related", []wire.List{
		wire.Contains, wire.ContainedBy, wire.PartiallyContains, wire.PartiallyContainedBy, wire.Complements}}
	routeContains    = readRoute{"/v1/contains", []wire.List{wire.Contains, wire.ContainedBy}}
	routeComplements = readRoute{"/v1/complements", []wire.List{wire.Complements}}
)

// errorResponse is the gate's JSON error body. Partial/MissingShards
// qualify a 404: "not found, but n shards could not be asked".
type errorResponse struct {
	Error         string   `json:"error"`
	Partial       bool     `json:"partial,omitempty"`
	MissingShards []string `json:"missingShards,omitempty"`
}

// maxPooledBuf is the largest buffer returned to bufPool; a larger one (a
// hub observation's body) is left to the GC so one outlier does not pin
// its capacity for the life of the process.
const maxPooledBuf = 1 << 20

// bufPool holds the byte buffers of the read path: shard bodies on the way
// in, the merged answer on the way out.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if bp == nil || cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

var answerPool = sync.Pool{New: func() any { return new(wire.Answer) }}

// gathered is the outcome of one fan-out: the per-shard answers plus
// the missing-shard accounting.
type gathered struct {
	answers []shardAnswer
	missing []string // shard names that produced no usable answer, sorted
}

func (gt *gathered) partial() bool { return len(gt.missing) > 0 }

// release returns every answer's pooled buffers; nothing scanned from them
// may be read afterwards.
func (gt *gathered) release() {
	for i := range gt.answers {
		gt.answers[i].release()
	}
}

// scatter fans one GET out to every shard concurrently and gathers the
// answers. The answers slice is in shard-map order — NOT arrival order —
// which, with the sorted merge below, is what detaches the response
// bytes from scheduling. The route table is loaded ONCE: a map swapped
// mid-request does not tear one fan-out across two topologies.
func (g *Gate) scatter(r *http.Request, path string) *gathered {
	shards := g.table().shards
	gt := &gathered{answers: make([]shardAnswer, len(shards))}
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			gt.answers[i] = g.fetchShard(r.Context(), sh, path)
		}(i, sh)
	}
	wg.Wait()
	for _, a := range gt.answers {
		if !a.ok {
			gt.missing = append(gt.missing, a.shard.name)
			if a.err != nil {
				g.log("shard %s unavailable: %v", a.shard.name, a.err)
			}
		}
	}
	sort.Strings(gt.missing)
	return gt
}

// merged folds every found answer into one — the first one's lists take
// the others' neighbours, in shard-map order — and compacts it. It is nil
// when no reachable shard knows the observation. The result lives in gt's
// pooled buffers.
func (gt *gathered) merged() *wire.Answer {
	var into *wire.Answer
	for _, a := range gt.answers {
		switch {
		case a.found == nil:
		case into == nil:
			into = a.found
		default:
			into.URI = a.found.URI
			for l, list := range a.found.Lists {
				into.Lists[l] = append(into.Lists[l], list...)
			}
		}
	}
	if into != nil {
		into.Compact()
	}
	return into
}

// degreeMemo writes a list's degrees. They repeat — k/|P| takes |P|+1
// values — so a degree already in the buffer is copied from there instead
// of being formatted again.
type degreeMemo struct {
	bits     [8]uint64
	from, to [8]int
	n        int
}

func (m *degreeMemo) append(b []byte, f float64) []byte {
	bits := math.Float64bits(f) // not ==: -0 and 0 are written differently
	for i := range min(m.n, len(m.bits)) {
		if m.bits[i] == bits {
			return append(b, b[m.from[i]:m.to[i]]...)
		}
	}
	k := m.n % len(m.bits)
	m.n++
	m.bits[k], m.from[k] = bits, len(b)
	b = wire.AppendFloat(b, f)
	m.to[k] = len(b)
	return b
}

// appendAnswer renders the merged answer of route rt: the queried URI, the
// route's lists — full-containment and complement neighbours as URI
// strings, partial ones as {uri, degree} — and the partial contract.
func appendAnswer(b []byte, rt *readRoute, a *wire.Answer, missing []string) []byte {
	b = append(b, `{"uri":`...)
	b = wire.AppendJSONString(b, a.URI)
	var degrees degreeMemo
	for _, l := range rt.lists {
		b = append(b, ',', '"')
		b = append(b, l.Name()...)
		b = append(b, '"', ':', '[')
		for k, n := range a.Lists[l] {
			if k > 0 {
				b = append(b, ',')
			}
			if !l.HasDegree() {
				b = wire.AppendJSONString(b, n.URI)
				continue
			}
			b = append(b, `{"uri":`...)
			b = wire.AppendJSONString(b, n.URI)
			b = append(b, `,"degree":`...)
			b = degrees.append(b, n.Degree)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(missing) == 0 {
		return append(b, `,"partial":false}`+"\n"...)
	}
	b = append(b, `,"partial":true,"missingShards":[`...)
	for k, name := range missing {
		if k > 0 {
			b = append(b, ',')
		}
		b = wire.AppendJSONString(b, name)
	}
	return append(b, "]}\n"...)
}

// readFanout is the handler of one fan-out read route: scatter the
// client's route, merge what the shards know, render.
func (g *Gate) readFanout(rt *readRoute) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		// The gate requires a full observation URI: shard-local indices
		// mean nothing across a fleet.
		obs := r.URL.Query().Get("obs")
		if obs == "" {
			front.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "missing ?obs= parameter (observation URI)"})
			return
		}
		gt := g.scatter(r, rt.path+"?obs="+url.QueryEscape(obs))
		defer gt.release()
		if len(gt.missing) == len(gt.answers) {
			g.rec.Count(CtrNoShards, 1)
			serve.SetRetryAfter(w, 3*time.Second)
			front.WriteJSON(w, http.StatusServiceUnavailable, errorResponse{
				Error: "no shards reachable", Partial: true, MissingShards: gt.missing,
			})
			return
		}
		if gt.partial() {
			g.rec.Count(CtrPartial, 1)
		}
		ans := gt.merged()
		if ans == nil {
			// No reachable shard knew the observation: a plain 404 when
			// every shard was asked, a partial-qualified one when some could
			// not be (the observation might live on a missing shard).
			front.WriteJSON(w, http.StatusNotFound, errorResponse{
				Error: "unknown observation \"" + obs + "\"", Partial: gt.partial(), MissingShards: gt.missing,
			})
			return
		}
		bp := getBuf()
		defer putBuf(bp)
		*bp = appendAnswer(*bp, rt, ans, gt.missing)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(*bp) // a failed write means the client is gone: nobody to tell
	}
}
