package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"rdfcube/internal/qb"
)

// insertTemplate is a pre-extracted recipe for a valid insert: dataset
// URI, one existing observation's dimension values (so the new one twins
// it and lands in real containment chains), and the schema's measure
// URIs. Templates are copied out of the corpora BEFORE any server starts
// — a serve.Server owns its corpus once live.
type insertTemplate struct {
	dataset  string
	dims     map[string]string
	measures []string
}

// body renders the insert for uri with every measure set to value().
func (tpl insertTemplate) body(uri string, value func() string) []byte {
	measures := map[string]string{}
	for _, m := range tpl.measures {
		measures[m] = value()
	}
	b, err := json.Marshal(map[string]any{
		"dataset": tpl.dataset, "uri": uri, "dimensions": tpl.dims, "measures": measures,
	})
	if err != nil {
		panic("chaos: marshaling an insert of strings: " + err.Error())
	}
	return b
}

// learn samples c for the client: two observation URIs per dataset to
// read, and a template from each dataset's first eight observations.
func (w *World) learn(c *qb.Corpus) {
	for _, ds := range c.Datasets {
		w.sampled = append(w.sampled,
			ds.Observations[0].URI.Value,
			ds.Observations[len(ds.Observations)/2].URI.Value)
		for o := 0; o < len(ds.Observations) && o < 8; o++ {
			tpl := insertTemplate{dataset: ds.URI.Value, dims: map[string]string{}}
			for k, d := range ds.Schema.Dimensions {
				tpl.dims[d.Value] = ds.Observations[o].DimValues[k].Value
			}
			for _, m := range ds.Schema.Measures {
				tpl.measures = append(tpl.measures, m.Value)
			}
			w.templates = append(w.templates, tpl)
		}
	}
}

// insert is one attempt in the ledger. Whether it landed is unknowable
// mid-chaos (a truncated 201 looks like a transport error), so the ledger
// keeps the body for reconcile to replay. What a client does know — that
// it saw the 201 — is kept beside it, in World.acked.
type insert struct {
	uri  string
	body []byte
}

// ackedCopy snapshots the URIs the world saw acknowledged, in ack order.
func (w *World) ackedCopy() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.acked...)
}

func (w *World) ledgerCopy() []insert {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]insert(nil), w.ledger...)
}

func (w *World) baseURL() string {
	u, _ := w.base.Load().(string)
	return u
}

// fetchBody GETs base+path and returns status and body.
func (w *World) fetchBody(base, path string) (int, []byte, error) {
	resp, err := w.client.Get(base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	return resp.StatusCode, body, err
}

// post POSTs a JSON body to base+path; ctx-free, bounded by the client.
func (w *World) post(base, path string, body []byte) (int, []byte, http.Header, error) {
	resp, err := w.client.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, rb, resp.Header, err
}

// getJSON decodes a 200 answer into v.
func (w *World) getJSON(base, path string, v any) error {
	code, body, err := w.fetchBody(base, path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, body)
	}
	return json.Unmarshal(body, v)
}

func relatedPath(uri string) string { return "/v1/related?obs=" + url.QueryEscape(uri) }

// isPartial reports whether a fan-out body is flagged "partial": true.
func isPartial(body []byte) bool {
	var flags struct {
		Partial bool `json:"partial"`
	}
	_ = json.Unmarshal(body, &flags) // not JSON means not flagged
	return flags.Partial
}

// insertOnce pushes one templated observation at the world's base URL and
// records it in the ledger. 201 marks it acknowledged; 409 (a duplicate
// after a retried or replayed attempt) and 429/503 (shed, degraded,
// breaker open, primary down) are legitimate refusals; a transport error
// is ambiguous and left for reconcile or the restart check to settle.
// Anything else is a violated contract.
func (w *World) insertOnce(rng *rand.Rand) error {
	tpl := w.templates[rng.IntN(len(w.templates))]
	uri := fmt.Sprintf("http://example.org/chaos/obs/%d", w.seq.Add(1))
	body := tpl.body(uri, func() string { return strconv.Itoa(rng.IntN(1000)) })
	w.mu.Lock()
	w.ledger = append(w.ledger, insert{uri: uri, body: body})
	w.mu.Unlock()

	code, rb, _, err := w.post(w.baseURL(), "/v1/observations", body)
	if err != nil {
		return nil
	}
	switch code {
	case http.StatusCreated:
		w.mu.Lock()
		w.acked = append(w.acked, uri)
		w.mu.Unlock()
	case http.StatusConflict:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.refusals.Add(1)
	default:
		return fmt.Errorf("insert %s: unexpected status %d: %s", uri, code, rb)
	}
	return nil
}

// readOnce asks the world's base URL for the relationships of an
// observation that exists — three times in four an acknowledged insert,
// otherwise one from the seed corpus — and classifies the answer. 200 is
// a read; 404 is only legitimate when qualified (the observation exists
// somewhere, so an unflagged 404 with every shard reachable is a wrong
// answer); 429/503 are refusals; a transport error is tolerated (the gate
// may be mid power cut). Anything else is a violated contract.
func (w *World) readOnce(rng *rand.Rand) error {
	uri := w.sampled[rng.IntN(len(w.sampled))]
	w.mu.Lock()
	if len(w.acked) > 0 && rng.IntN(4) > 0 {
		uri = w.acked[rng.IntN(len(w.acked))]
	}
	w.mu.Unlock()
	start := time.Now()
	code, body, err := w.fetchBody(w.baseURL(), relatedPath(uri))
	if err != nil {
		return nil
	}
	inWindow := w.window.Load()
	if inWindow {
		w.mu.Lock()
		w.lats = append(w.lats, time.Since(start))
		w.mu.Unlock()
	}
	partial := isPartial(body)
	if partial {
		w.partials.Add(1)
	}
	switch code {
	case http.StatusOK:
		w.reads.Add(1)
		if inWindow {
			w.windowOK.Add(1)
		}
	case http.StatusNotFound:
		if !partial {
			return fmt.Errorf("read %s: unqualified 404 for an existing observation: %s", uri, body)
		}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.refusals.Add(1)
	default:
		return fmt.Errorf("read %s: unexpected status %d: %s", uri, code, body)
	}
	return nil
}

// windowP99 is the 99th-percentile read latency inside the marked window.
func (w *World) windowP99() (time.Duration, int) {
	w.mu.Lock()
	sorted := append([]time.Duration(nil), w.lats...)
	w.mu.Unlock()
	if len(sorted) == 0 {
		return 0, 0
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[min(len(sorted)*99/100, len(sorted)-1)], len(sorted)
}
