package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"rdfcube/internal/serve"
)

// maxInsertBody mirrors the shard-side bound on an insert body.
const maxInsertBody = 1 << 20

// handleInsert routes a write to the shard owning the body's dataset
// and forwards it with bounded retries. Retry policy:
//
//   - transport errors, 429 and 503 are retryable, up to WriteRetries
//     re-sends within the inbound budget;
//   - a Retry-After header is honored (capped at MaxRetryWait — a gate
//     cannot wait out a long hint inside a 5s request budget), else the
//     serve.Backoff schedule paces the retries;
//   - a Leader header on a 503 redirects the NEXT attempt there: a
//     demoted follower tells us where the leadership went (PR 7's
//     failover protocol) and the gate follows without a config change;
//   - anything else (201, 400, 409, ...) is the shard's answer and is
//     relayed verbatim — the gate adds routing, not semantics.
//
// Writes are never hedged: POST /v1/observations is not idempotent, and
// a duplicate-URI retry against the SAME shard is safe (409) while a
// racing duplicate against two targets is not.
func (g *Gate) handleInsert(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxInsertBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "read insert body: " + err.Error()})
		return
	}
	var probe struct {
		Dataset string `json:"dataset"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad insert body: " + err.Error()})
		return
	}
	sh, ok := g.table().byDataset[probe.Dataset]
	if !ok {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "no shard owns dataset \"" + probe.Dataset + "\""})
		return
	}

	now := time.Now()
	if ok, retry := sh.primary.breaker.Allow(now); !ok {
		setRetryAfter(w, retry)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error: "shard " + sh.name + " unavailable (breaker open)", MissingShards: []string{sh.name},
		})
		return
	}

	target := sh.primary.url
	bo := serve.Backoff{Base: g.cfg.writeRetryBase()}
	retries := g.cfg.writeRetries()
	var lastStatus int
	var lastBody []byte
	var lastHeader http.Header
	for attempt := 0; ; attempt++ {
		status, respBody, header, err := g.postShard(r.Context(), target, "/v1/observations", body)
		if err == nil && status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
			// The shard answered substantively; relay verbatim.
			if status < 500 {
				sh.primary.breaker.Success()
			}
			relay(w, status, respBody, header)
			return
		}
		if err != nil {
			sh.primary.breaker.Failure(time.Now())
			lastStatus, lastBody, lastHeader = 0, nil, nil
			g.log("insert to %s (%s) failed: %v", sh.name, target, err)
		} else {
			lastStatus, lastBody, lastHeader = status, respBody, header
			// A follower answering 503 names its leader; follow it.
			if leader := header.Get(serve.LeaderHeader); leader != "" {
				target = trimBase(leader)
				g.log("insert to %s redirected to leader %s", sh.name, target)
			}
		}
		if attempt >= retries {
			break
		}
		wait := bo.Next()
		if lastHeader != nil {
			if ra := retryAfterHint(lastHeader); ra > 0 {
				wait = ra
			}
		}
		if max := g.cfg.maxRetryWait(); wait > max {
			wait = max
		}
		// Never sleep past the inbound deadline: better to relay the
		// refusal than to have the TimeoutHandler answer for us.
		if dl, ok := r.Context().Deadline(); ok {
			if remaining := time.Until(dl) - g.cfg.mergeReserve(); wait > remaining {
				break
			}
		}
		g.count(CtrRetries, 1)
		select {
		case <-r.Context().Done():
			writeJSON(w, statusClientGone, errorResponse{Error: "request abandoned: " + r.Context().Err().Error()})
			return
		case <-time.After(wait):
		}
	}

	if lastStatus != 0 {
		// Out of budget: the shard's last refusal is the honest answer.
		relay(w, lastStatus, lastBody, lastHeader)
		return
	}
	setRetryAfter(w, 3*time.Second)
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error: "shard " + sh.name + " unreachable", MissingShards: []string{sh.name},
	})
}

// statusClientGone mirrors serve's 499 convention.
const statusClientGone = 499

// postShard performs one POST attempt against one target: the shard
// deadline carved from ctx, a bounded read of the answer. Client inserts
// and migration copies both go through it; what to do with a refusal is
// the caller's policy.
func (g *Gate) postShard(ctx context.Context, target, path string, body []byte) (int, []byte, http.Header, error) {
	ctx, cancel := g.shardContext(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", target+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	respBody, rerr := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBody))
	resp.Body.Close()
	g.observe(HistWriteLatency, time.Since(start).Microseconds())
	if rerr != nil {
		return 0, nil, nil, rerr
	}
	return resp.StatusCode, respBody, resp.Header, nil
}

// retryAfterHint parses an integer-seconds Retry-After header.
func retryAfterHint(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// relay copies an upstream answer downstream, preserving the fields the
// client acts on (Retry-After in particular).
func relay(w http.ResponseWriter, status int, body []byte, header http.Header) {
	if header != nil {
		for _, k := range []string{"Content-Type", "Retry-After", serve.LeaderHeader} {
			if v := header.Get(k); v != "" {
				w.Header().Set(k, v)
			}
		}
	}
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(status)
	w.Write(body)
}
