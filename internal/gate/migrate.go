package gate

// Live dataset migration: the five-phase state machine that moves
// datasets between shards while the gate keeps serving.
//
//	copy        bootstrap the target from the source's image: register
//	            the migrating datasets' schemas, then replay their
//	            observations. The image's WAL position is the pump
//	            cursor.
//	catch-up    tail the source's WAL from the cursor, relaying records
//	            for migrating datasets, until the cursor reaches the
//	            source's durable end.
//	double-read fan sampled reads to BOTH owners and byte-compare the
//	            canonicalized answers. Mismatches are metrics, never
//	            client errors; cutover requires consecutive clean rounds.
//	cutover     install a successor shard map (epoch+1) moving ownership
//	            to the target. The new-map intent is persisted BEFORE the
//	            swap, so a crash between the two resumes forward.
//	drain       keep pumping until the source has been continuously quiet
//	            for a window — the writes that raced the cutover land.
//
// The source is read through a replica.Source — the same client of the
// replication protocol a follower uses, with the same rule: the cursor
// moves only over what has been relayed to the target, and a cursor the
// source no longer holds (replica.ErrGone) means copy again. A migration
// is that Source plus a dataset filter plus a remote POST.
//
// Every phase is idempotent: copy re-registers (200) and re-inserts
// (409) harmlessly, the pump skips duplicates the same way, and cutover
// checks current ownership before swapping. That is what makes the
// crash story simple — a resumed migration restarts its phase (or, for
// pre-cutover phases, restarts from copy: a fresh snapshot supersedes
// any cursor) rather than replaying a precise history.
//
// Aborting is allowed strictly BEFORE cutover: until the map flips the
// source has stayed authoritative, so abandoning the target's copy
// loses nothing. After cutover the only way back is a new migration in
// the opposite direction.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/qb"
	"rdfcube/internal/rdf"
	"rdfcube/internal/replica"
	"rdfcube/internal/serve"
	"rdfcube/internal/wal"
	"rdfcube/internal/wire"
)

// Migration metrics.
const (
	// CtrDoubleReadMismatch counts double-read verification mismatches —
	// the rebalance analogue of a failed read-repair check.
	CtrDoubleReadMismatch = "gate.migrate.doubleread.mismatch"
	// CtrMigrationPumped counts WAL records relayed source → target.
	CtrMigrationPumped = "gate.migrate.pumped"
)

// Migration phases, in order.
const (
	PhaseCopy       = "copy"
	PhaseCatchup    = "catchup"
	PhaseDoubleRead = "doubleread"
	PhaseCutover    = "cutover"
	PhaseDrain      = "drain"
	PhaseDone       = "done"
	PhaseAborted    = "aborted"
)

// Migration control errors.
var (
	ErrMigrationExists  = errors.New("gate: migration id already exists")
	ErrMigrationUnknown = errors.New("gate: unknown migration")
	ErrMigrationCutOver = errors.New("gate: migration already cut over; abort is only possible before cutover")
)

// maxRecopies bounds how often one phase bootstraps the target again
// because the source truncated its WAL past the cursor.
const maxRecopies = 5

// MigratorOptions tunes the migration state machine. Zero values get
// sane defaults.
type MigratorOptions struct {
	// MatchRounds is how many CONSECUTIVE clean double-read rounds are
	// required before cutover; default 3.
	MatchRounds int
	// SampleReads is how many observation URIs each round verifies;
	// default 8.
	SampleReads int
	// Interval paces the pump and verify loops; default 100ms.
	Interval time.Duration
	// PhaseTimeout bounds each phase; a phase that cannot finish fails
	// the migration (pre-cutover: source stays authoritative). Default
	// 30s.
	PhaseTimeout time.Duration
	// DrainWindow is how long the pump must stay continuously caught up
	// after cutover before the migration completes; default 400ms.
	DrainWindow time.Duration
}

func (o MigratorOptions) matchRounds() int {
	if o.MatchRounds <= 0 {
		return 3
	}
	return o.MatchRounds
}

func (o MigratorOptions) sampleReads() int {
	if o.SampleReads <= 0 {
		return 8
	}
	return o.SampleReads
}

func (o MigratorOptions) interval() time.Duration {
	if o.Interval <= 0 {
		return 100 * time.Millisecond
	}
	return o.Interval
}

func (o MigratorOptions) phaseTimeout() time.Duration {
	if o.PhaseTimeout <= 0 {
		return 30 * time.Second
	}
	return o.PhaseTimeout
}

func (o MigratorOptions) drainWindow() time.Duration {
	if o.DrainWindow <= 0 {
		return 400 * time.Millisecond
	}
	return o.DrainWindow
}

// MigrationState is a migration's persisted, externally visible state.
// Deliberately small: the pump cursor is NOT here — a resumed
// pre-cutover migration restarts from copy, because a fresh snapshot
// supersedes any cursor and re-copying is idempotent.
type MigrationState struct {
	Spec  MigrationSpec `json:"spec"`
	Phase string        `json:"phase"`
	// MapEpoch is the epoch the cutover installed (or intends to): it is
	// persisted BEFORE the swap so a crash between persist and swap
	// resumes forward into an idempotent re-cutover.
	MapEpoch   int64  `json:"mapEpoch,omitempty"`
	Mismatches int64  `json:"mismatches"`
	Pumped     int64  `json:"pumped"`
	Copied     int64  `json:"copied"`
	Error      string `json:"error,omitempty"`
}

// dsSchema is one source dataset's identity, indexed by its corpus
// position (the coordinate WAL records use).
type dsSchema struct {
	uri       string
	dims      []string
	measures  []string
	migrating bool
}

// Migrator runs one migration in a background goroutine. Create via
// Gate.StartMigration; observe via State; stop via Stop (resumable) or
// Gate.AbortMigration (terminal, pre-cutover only).
type Migrator struct {
	g         *Gate
	opt       MigratorOptions
	statePath string // "" = in-memory state only

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	abort  atomic.Bool

	mu    sync.Mutex
	state MigrationState

	// src reads the source shard; its cursor is transient, rebuilt by
	// copy() on every (re)start together with what copy() learned.
	src        *replica.Source
	srcSchemas []dsSchema
	sampleURIs []string
}

// State returns a copy of the migration's current state.
func (m *Migrator) State() MigrationState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state
	st.Spec.Datasets = append([]string(nil), st.Spec.Datasets...)
	return st
}

// Phase returns the current phase.
func (m *Migrator) Phase() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state.Phase
}

// Done is closed when the migration goroutine exits (done, aborted,
// failed, or stopped for resume).
func (m *Migrator) Done() <-chan struct{} { return m.done }

// Stop cancels the migration goroutine WITHOUT marking the migration
// aborted: the persisted state keeps its phase, so a later gate can
// resume it. Blocks until the goroutine exits.
func (m *Migrator) Stop() {
	m.cancel()
	<-m.done
}

// setPhase transitions and persists.
func (m *Migrator) setPhase(phase string) {
	m.mu.Lock()
	m.state.Phase = phase
	m.state.Error = ""
	m.mu.Unlock()
	m.persist()
	m.g.log("migration %s: phase %s", m.spec().ID, phase)
}

func (m *Migrator) spec() MigrationSpec {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state.Spec
}

// persist writes the state file atomically (tmp + fsync + rename). A persist
// failure is logged, not fatal: the migration itself keeps working, it
// just loses crash-resumability.
func (m *Migrator) persist() {
	if m.statePath == "" {
		return
	}
	m.mu.Lock()
	data, err := json.MarshalIndent(m.state, "", "  ")
	m.mu.Unlock()
	if err != nil {
		m.g.log("migration %s: marshal state: %v", m.spec().ID, err)
		return
	}
	if err := faultfs.WriteFileAtomic(faultfs.OS{}, m.statePath, data); err != nil {
		m.g.log("migration %s: persist state: %v", m.spec().ID, err)
	}
}

// run is the migration goroutine.
func (m *Migrator) run() {
	defer close(m.done)
	err := m.execute()
	if err == nil {
		m.setPhase(PhaseDone)
		return
	}
	if m.abort.Load() && !m.pastCutover() {
		// Operator abort before cutover: the source never stopped being
		// authoritative, so abandoning the target copy is clean.
		m.setPhase(PhaseAborted)
		return
	}
	if errors.Is(err, context.Canceled) {
		// Stopped (gate shutdown): leave the persisted phase untouched so
		// a successor gate resumes.
		return
	}
	m.mu.Lock()
	m.state.Error = err.Error()
	m.mu.Unlock()
	m.persist()
	m.g.log("migration %s: failed in phase %s: %v", m.spec().ID, m.Phase(), err)
}

func (m *Migrator) pastCutover() bool {
	switch m.Phase() {
	case PhaseCutover, PhaseDrain, PhaseDone:
		return true
	}
	return false
}

// execute walks the phases. Pre-cutover resumes restart from copy; a
// resume at cutover/drain keeps going forward (the map flip may already
// be visible to clients, so backing out would lose acked writes).
func (m *Migrator) execute() error {
	if !m.pastCutover() {
		m.setPhase(PhaseCopy)
		if err := m.copy(); err != nil {
			return err
		}
		if err := m.checkAbort(); err != nil {
			return err
		}
		m.setPhase(PhaseCatchup)
		if err := m.catchup(); err != nil {
			return err
		}
		if err := m.checkAbort(); err != nil {
			return err
		}
		m.setPhase(PhaseDoubleRead)
		if err := m.doubleRead(); err != nil {
			return err
		}
		if err := m.checkAbort(); err != nil {
			return err
		}
	}
	if err := m.cutover(); err != nil {
		return err
	}
	m.setPhase(PhaseDrain)
	return m.drain()
}

func (m *Migrator) checkAbort() error {
	if m.abort.Load() {
		return context.Canceled
	}
	return m.ctx.Err()
}

// shardURL resolves a shard's primary URL from the CURRENT table, so a
// map swapped mid-migration is honored.
func (m *Migrator) shardURL(name string) (string, error) {
	if sh := m.g.table().byName[name]; sh != nil {
		return sh.primary.url, nil
	}
	return "", fmt.Errorf("gate: shard %q not in current map", name)
}

// ---------------------------------------------------------------- copy

// copy bootstraps the target: pull the source's image, register the
// migrating datasets' schemas on the target, replay their observations.
// The pump cursor moves to the image's position only when all of that
// has landed.
func (m *Migrator) copy() error {
	spec := m.spec()
	srcURL, err := m.shardURL(spec.From)
	if err != nil {
		return err
	}
	tgtURL, err := m.shardURL(spec.To)
	if err != nil {
		return err
	}
	m.src.Primary = srcURL
	ctx, cancel := context.WithTimeout(m.ctx, m.opt.phaseTimeout())
	defer cancel()
	return m.src.Bootstrap(ctx, func(img replica.Image) error {
		return m.copyImage(spec, tgtURL, img.Snapshot.Space.Corpus)
	})
}

// copyImage relays the migrating datasets of one source image.
func (m *Migrator) copyImage(spec MigrationSpec, tgtURL string, corpus *qb.Corpus) error {
	migrating := map[string]bool{}
	for _, ds := range spec.Datasets {
		migrating[ds] = true
	}
	schemas := make([]dsSchema, len(corpus.Datasets))
	found := 0
	for i, ds := range corpus.Datasets {
		schemas[i] = dsSchema{
			uri:       ds.URI.Value,
			dims:      termValues(ds.Schema.Dimensions),
			measures:  termValues(ds.Schema.Measures),
			migrating: migrating[ds.URI.Value],
		}
		if schemas[i].migrating {
			found++
		}
	}
	if found != len(spec.Datasets) {
		return fmt.Errorf("source %s serves %d of %d migrating datasets", spec.From, found, len(spec.Datasets))
	}

	// Register schemas, then replay observations. Both idempotent: an
	// already-registered dataset answers 200, a duplicate observation 409.
	for _, sc := range schemas {
		if !sc.migrating {
			continue
		}
		regBody := map[string]any{"uri": sc.uri, "dimensions": sc.dims, "measures": sc.measures}
		status, rb, err := m.postJSON(tgtURL, "/v1/datasets", regBody)
		if err != nil {
			return fmt.Errorf("register %s on target: %w", sc.uri, err)
		}
		if status != http.StatusOK && status != http.StatusCreated {
			return fmt.Errorf("register %s on target: status %d: %s", sc.uri, status, trimBody(rb))
		}
	}
	var copied int64
	var samples []string
	for i, ds := range corpus.Datasets {
		if !schemas[i].migrating {
			continue
		}
		for _, o := range ds.Observations {
			if err := m.postObservation(tgtURL, &schemas[i], o.URI.Value, o.DimValues, o.MeasureValues); err != nil {
				return err
			}
			copied++
			samples = append(samples, o.URI.Value)
		}
	}

	m.srcSchemas = schemas
	m.sampleURIs = sampleStride(samples, m.opt.sampleReads())
	m.mu.Lock()
	m.state.Copied = copied
	m.mu.Unlock()
	m.persist()
	return nil
}

func termValues(ts []rdf.Term) []string {
	out := make([]string, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.Value)
	}
	return out
}

// sampleStride picks up to n URIs spread evenly across the list.
func sampleStride(uris []string, n int) []string {
	if len(uris) <= n {
		return uris
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, uris[i*len(uris)/n])
	}
	return out
}

func trimBody(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(bytes.TrimSpace(b))
}

// postObservation relays one observation to the target, building the
// serve insert body from the source dataset's schema order.
func (m *Migrator) postObservation(tgtURL string, sc *dsSchema, obsURI string, dimVals, measVals []rdf.Term) error {
	dims := map[string]string{}
	for i, v := range dimVals {
		if i < len(sc.dims) && !v.IsZero() {
			dims[sc.dims[i]] = v.Value
		}
	}
	meas := map[string]string{}
	for i, v := range measVals {
		if i < len(sc.measures) && !v.IsZero() {
			meas[sc.measures[i]] = v.Value
		}
	}
	body := map[string]any{"dataset": sc.uri, "uri": obsURI, "dimensions": dims, "measures": meas}
	status, rb, err := m.postJSON(tgtURL, "/v1/observations", body)
	if err != nil {
		return fmt.Errorf("copy %s to target: %w", obsURI, err)
	}
	// 201 = landed, 409 = already there (an earlier attempt, or the pump
	// replaying a record the snapshot already carried). Both are success.
	if status != http.StatusCreated && status != http.StatusConflict {
		return fmt.Errorf("copy %s to target: status %d: %s", obsURI, status, trimBody(rb))
	}
	return nil
}

// postJSON POSTs with bounded retries, honoring Retry-After hints and
// Leader redirects (a target mid-failover names its leader; the
// migration follows rather than failing). The attempt is the gate's one
// shard POST; the policy — five attempts, no breaker, no inbound
// deadline — is the migration's own.
func (m *Migrator) postJSON(base, path string, v any) (int, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	bo := serve.Backoff{Base: 50 * time.Millisecond}
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if err := m.ctx.Err(); err != nil {
			return 0, nil, err
		}
		status, rb, header, err := m.g.postShard(m.ctx, base, path, body)
		wait := bo.Next()
		switch {
		case err != nil:
			lastErr = err
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			lastErr = fmt.Errorf("status %d: %s", status, trimBody(rb))
			if leader := header.Get(serve.LeaderHeader); leader != "" {
				base = trimBase(leader)
			}
			if ra := retryAfterHint(header); ra > 0 && ra < m.g.cfg.maxRetryWait() {
				wait = ra
			}
		default:
			return status, rb, nil
		}
		if !m.sleep(wait) {
			return 0, nil, m.ctx.Err()
		}
	}
	return 0, nil, fmt.Errorf("gate: giving up after retries: %w", lastErr)
}

// sleep waits d or until the migration is canceled; false means canceled.
func (m *Migrator) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-m.ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// ------------------------------------------------------------- catchup

// catchup pumps the source WAL until the cursor reaches the durable end.
func (m *Migrator) catchup() error {
	deadline := time.Now().Add(m.opt.phaseTimeout())
	var ps pumpState
	for {
		caughtUp, err := m.pump(m.opt.interval(), &ps)
		if err != nil || caughtUp {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate: catch-up did not converge within %v (last pump error: %v)", m.opt.phaseTimeout(), ps.lastErr)
		}
	}
}

// pumpState is one phase's pump bookkeeping.
type pumpState struct {
	recopies int   // bootstraps redone because the source no longer held the cursor
	lastErr  error // most recent transient failure, for the phase's timeout message
}

// pump tails one chunk of the source WAL and relays the migrating
// datasets' records to the target; the cursor moves over the chunk only
// once every one of them has landed. It reports whether the cursor is at
// the source's durable end. The three ways a pump can go wrong are
// settled here, once, for every phase that pumps:
//
//   - the source no longer holds the cursor (it checkpointed past it, it
//     restarted, the frame there is corrupt): bootstrap the target again —
//     idempotent — at most maxRecopies times a phase;
//   - the migration was canceled: the phase ends;
//   - anything else (a cut link, a refusal, a target that would not take a
//     record) is transient: remembered in ps, paced by one interval, and
//     reported as "not caught up" for the phase's deadline to judge.
func (m *Migrator) pump(wait time.Duration, ps *pumpState) (caughtUp bool, err error) {
	spec := m.spec()
	srcURL, err := m.shardURL(spec.From)
	if err != nil {
		return false, err
	}
	tgtURL, err := m.shardURL(spec.To)
	if err != nil {
		return false, err
	}
	m.src.Primary = srcURL
	ctx, cancel := context.WithTimeout(m.ctx, wait+m.g.cfg.shardTimeout())
	defer cancel()
	tail, err := m.src.Poll(ctx, wait, func(recs []wal.Record) error {
		for _, rec := range recs {
			// Records for datasets born after our snapshot have indices past
			// our schema list; they cannot be migrating (migrating datasets
			// predate the copy), so they are skipped like any other
			// non-migrating dataset's records.
			if rec.Dataset < 0 || rec.Dataset >= len(m.srcSchemas) || !m.srcSchemas[rec.Dataset].migrating {
				continue
			}
			if err := m.postObservation(tgtURL, &m.srcSchemas[rec.Dataset], rec.URI.Value, rec.DimValues, rec.MeasureValues); err != nil {
				return err
			}
			m.mu.Lock()
			m.state.Pumped++
			m.mu.Unlock()
			m.g.count(CtrMigrationPumped, 1)
		}
		return nil
	})
	switch {
	case err == nil:
		return tail.CaughtUp, nil
	case errors.Is(err, replica.ErrGone):
		if ps.recopies++; ps.recopies > maxRecopies {
			return false, fmt.Errorf("gate: source moved its WAL out from under the cursor %d times in one phase: %w", ps.recopies, err)
		}
		m.g.log("migration %s: %v; copying again", spec.ID, err)
		return false, m.copy()
	case m.ctx.Err() != nil:
		return false, m.ctx.Err()
	default:
		ps.lastErr = err
		if !m.sleep(m.opt.interval()) {
			return false, m.ctx.Err()
		}
		return false, nil
	}
}

// ---------------------------------------------------------- doubleread

// doubleRead verifies the target: pump to caught-up, then fan sampled
// reads to BOTH owners and byte-compare the canonicalized answers.
// Mismatches are counted (gate metrics, never client-visible errors)
// and reset the clean-round streak; cutover requires MatchRounds
// consecutive clean rounds.
func (m *Migrator) doubleRead() error {
	spec := m.spec()
	deadline := time.Now().Add(m.opt.phaseTimeout())
	clean := 0
	var ps pumpState
	for clean < m.opt.matchRounds() {
		if err := m.ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate: double-read did not reach %d clean rounds within %v (mismatches: %d)",
				m.opt.matchRounds(), m.opt.phaseTimeout(), m.State().Mismatches)
		}
		caughtUp, err := m.pump(0, &ps)
		if err != nil {
			return err
		}
		if !caughtUp {
			// Not an error round, just not a verifiable one: comparing a
			// target that is known to be behind would count phantom
			// mismatches.
			clean = 0
			continue
		}
		srcURL, err := m.shardURL(spec.From)
		if err != nil {
			return err
		}
		tgtURL, err := m.shardURL(spec.To)
		if err != nil {
			return err
		}
		roundOK := true
		for _, obs := range m.sampleURIs {
			a, aerr := m.g.canonicalRelated(m.ctx, srcURL, obs)
			b, berr := m.g.canonicalRelated(m.ctx, tgtURL, obs)
			if aerr != nil || berr != nil {
				roundOK = false
				break // fetch trouble: retry the round, not a mismatch
			}
			if !bytes.Equal(a, b) {
				roundOK = false
				m.mu.Lock()
				m.state.Mismatches++
				m.mu.Unlock()
				m.g.drMismatch.Add(1)
				m.g.count(CtrDoubleReadMismatch, 1)
				m.g.log("migration %s: double-read mismatch on %s", spec.ID, obs)
			}
		}
		if roundOK {
			clean++
		} else {
			clean = 0
		}
		if clean < m.opt.matchRounds() && !m.sleep(m.opt.interval()) {
			return m.ctx.Err()
		}
	}
	return nil
}

// canonicalRelated fetches one owner's /v1/related answer and
// canonicalizes it as "the merge of one answer": the same scan, sort +
// compact and rendering a gate read applies to a whole fan-out, so the
// shard-LOCAL observation indices (which legitimately differ between
// owners) and the owner's list order drop out. Byte equality of the
// results is then exactly "same relationships, same degrees".
func (g *Gate) canonicalRelated(ctx context.Context, base, obs string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.shardTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", base+routeRelated.path+"?obs="+url.QueryEscape(obs), nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	body := getBuf()
	defer putBuf(body)
	rerr := readBody(body, resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("related %s: status %d", obs, resp.StatusCode)
	}
	ans := answerPool.Get().(*wire.Answer)
	defer func() {
		ans.Reset()
		answerPool.Put(ans)
	}()
	if err := ans.Scan(*body); err != nil {
		return nil, fmt.Errorf("related %s: %w", obs, err)
	}
	ans.Compact()
	return appendAnswer(nil, &routeRelated, ans, nil), nil
}

// ------------------------------------------------------------- cutover

// cutover installs the successor map moving ownership From → To. The
// intended epoch is persisted BEFORE the swap: a crash between the two
// resumes into this same function, which notices ownership either
// already moved (no-op) or not (re-swap against the then-current map).
func (m *Migrator) cutover() error {
	spec := m.spec()
	for attempt := 0; attempt < 5; attempt++ {
		if err := m.ctx.Err(); err != nil {
			return err
		}
		cur := m.g.CurrentMap()
		if ownedBy(cur, spec.Datasets, spec.To) {
			m.setPhase(PhaseCutover)
			return nil
		}
		next, err := moveDatasets(cur, spec)
		if err != nil {
			return err
		}
		m.mu.Lock()
		m.state.Phase = PhaseCutover
		m.state.MapEpoch = next.Epoch
		m.state.Error = ""
		m.mu.Unlock()
		m.persist()
		switch err := m.g.SwapMap(next); {
		case err == nil:
			m.g.log("migration %s: cutover installed epoch %d", spec.ID, next.Epoch)
			return nil
		case errors.Is(err, ErrStaleEpoch):
			continue // an admin swap raced us; rebuild against the new map
		default:
			return err
		}
	}
	return fmt.Errorf("gate: cutover lost the epoch race 5 times")
}

// ownedBy reports whether shard `name` owns every listed dataset.
func ownedBy(m ShardMap, datasets []string, name string) bool {
	owner := map[string]string{}
	for _, sc := range m.Shards {
		for _, ds := range sc.Datasets {
			owner[ds] = sc.Name
		}
	}
	for _, ds := range datasets {
		if owner[ds] != name {
			return false
		}
	}
	return true
}

// moveDatasets builds the successor map: spec.Datasets leave From and
// join To (sorted), epoch+1.
func moveDatasets(cur ShardMap, spec MigrationSpec) (ShardMap, error) {
	moving := map[string]bool{}
	for _, ds := range spec.Datasets {
		moving[ds] = true
	}
	next := copyMap(cur)
	next.Epoch = cur.Epoch + 1
	var fromSeen, toSeen bool
	for i := range next.Shards {
		sc := &next.Shards[i]
		switch sc.Name {
		case spec.From:
			fromSeen = true
			kept := sc.Datasets[:0]
			for _, ds := range sc.Datasets {
				if !moving[ds] {
					kept = append(kept, ds)
				}
			}
			sc.Datasets = kept
		case spec.To:
			toSeen = true
			sc.Datasets = append(sc.Datasets, spec.Datasets...)
			sort.Strings(sc.Datasets)
		}
	}
	if !fromSeen || !toSeen {
		return ShardMap{}, fmt.Errorf("gate: migration %s: shard %q or %q left the map", spec.ID, spec.From, spec.To)
	}
	return next, nil
}

// --------------------------------------------------------------- drain

// drain pumps until the source has been continuously caught up for the
// drain window: the writes that raced the cutover have all landed on
// the target, and the migration is complete.
func (m *Migrator) drain() error {
	if m.src.Cursor().Stream == "" {
		// Resumed directly into drain: rebuild the cursor. The fresh
		// snapshot supersedes whatever the pre-crash pump had relayed.
		if err := m.copy(); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(m.opt.phaseTimeout())
	var ps pumpState
	var quietSince time.Time
	for {
		if err := m.ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate: drain did not quiesce within %v (last pump error: %v)", m.opt.phaseTimeout(), ps.lastErr)
		}
		caughtUp, err := m.pump(m.opt.interval()/2, &ps)
		if err != nil {
			return err
		}
		if !caughtUp {
			quietSince = time.Time{}
			continue
		}
		if quietSince.IsZero() {
			quietSince = time.Now()
		}
		if time.Since(quietSince) >= m.opt.drainWindow() {
			return nil
		}
	}
}

// ------------------------------------------------------- gate plumbing

// StartMigration launches (or resumes) a migration. For a fresh spec it
// validates against the current map, persists phase=copy, and launches
// the state machine; when a state file for the ID exists it resumes
// that file's phase instead (a done or aborted file is an error). At
// most one runner per ID exists at a time.
func (g *Gate) StartMigration(spec MigrationSpec) (*Migrator, error) {
	if spec.ID == "" {
		return nil, fmt.Errorf("gate: migration with empty id")
	}
	g.migMu.Lock()
	defer g.migMu.Unlock()
	if _, exists := g.migrations[spec.ID]; exists {
		return nil, fmt.Errorf("%w: %q", ErrMigrationExists, spec.ID)
	}
	state := MigrationState{Spec: spec, Phase: PhaseCopy}
	statePath := ""
	if g.cfg.MigrationStateDir != "" {
		statePath = filepath.Join(g.cfg.MigrationStateDir, spec.ID+".json")
		if data, err := os.ReadFile(statePath); err == nil {
			var prior MigrationState
			if err := json.Unmarshal(data, &prior); err != nil {
				return nil, fmt.Errorf("gate: migration %q: corrupt state file: %w", spec.ID, err)
			}
			switch prior.Phase {
			case PhaseDone:
				return nil, fmt.Errorf("%w: %q already completed", ErrMigrationExists, spec.ID)
			case PhaseAborted:
				return nil, fmt.Errorf("%w: %q was aborted", ErrMigrationExists, spec.ID)
			}
			state = prior // resume: the file's spec and phase win
		}
	}
	return g.launchLocked(state, statePath)
}

// launchLocked creates and starts the runner; the caller holds migMu.
func (g *Gate) launchLocked(state MigrationState, statePath string) (*Migrator, error) {
	switch state.Phase {
	case PhaseCutover, PhaseDrain:
		// Post-cutover resume: ownership may already have moved, so the
		// fresh-spec validation below would wrongly reject it.
	default:
		if err := ValidateMigrations(g.CurrentMap(), []MigrationSpec{state.Spec}); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Migrator{
		g:         g,
		opt:       g.cfg.Migrator,
		statePath: statePath,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     state,
		src:       &replica.Source{Client: g.client, Logf: g.log},
	}
	m.persist()
	g.migrations[state.Spec.ID] = m
	go m.run()
	return m, nil
}

// ResumeMigrations scans the state directory and resumes every
// migration whose file is not terminal. Returns the resumed runners.
// Called by cubegate at boot, before file-specified migrations start.
func (g *Gate) ResumeMigrations() ([]*Migrator, error) {
	dir := g.cfg.MigrationStateDir
	if dir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []*Migrator
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return out, err
		}
		var state MigrationState
		if err := json.Unmarshal(data, &state); err != nil {
			g.log("skipping corrupt migration state file %s: %v", e.Name(), err)
			continue
		}
		if state.Phase == PhaseDone || state.Phase == PhaseAborted || state.Spec.ID == "" {
			continue
		}
		g.migMu.Lock()
		_, exists := g.migrations[state.Spec.ID]
		var m *Migrator
		if !exists {
			m, err = g.launchLocked(state, filepath.Join(dir, e.Name()))
		}
		g.migMu.Unlock()
		if err != nil {
			g.log("resuming migration %s: %v", state.Spec.ID, err)
			continue
		}
		if m != nil {
			g.log("resumed migration %s in phase %s", state.Spec.ID, state.Phase)
			out = append(out, m)
		}
	}
	return out, nil
}

// AbortMigration aborts a running migration. Only allowed BEFORE
// cutover: until the map flips, the source has stayed authoritative and
// abandoning the target copy is clean; after it, aborting would lose
// writes routed to the new owner.
func (g *Gate) AbortMigration(id string) error {
	g.migMu.Lock()
	m := g.migrations[id]
	g.migMu.Unlock()
	if m == nil {
		return fmt.Errorf("%w: %q", ErrMigrationUnknown, id)
	}
	switch m.Phase() {
	case PhaseCutover, PhaseDrain, PhaseDone:
		return ErrMigrationCutOver
	case PhaseAborted:
		return nil
	}
	m.abort.Store(true)
	m.cancel()
	<-m.done
	// A running migration's goroutine sees the abort flag and persists
	// PhaseAborted itself. But a migration that already FAILED (its
	// goroutine exited with the error recorded, phase left where it
	// stopped) has nobody left to transition it — without this, the
	// abort would be a silent no-op and the next boot's resume scan
	// would revive a migration the operator explicitly killed.
	if !m.pastCutover() && m.Phase() != PhaseAborted {
		m.setPhase(PhaseAborted)
	}
	return nil
}

// Migrations lists every known migration's state, sorted by ID.
func (g *Gate) Migrations() []MigrationState {
	g.migMu.Lock()
	runners := make([]*Migrator, 0, len(g.migrations))
	for _, m := range g.migrations {
		runners = append(runners, m)
	}
	g.migMu.Unlock()
	out := make([]MigrationState, 0, len(runners))
	for _, m := range runners {
		out = append(out, m.State())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.ID < out[j].Spec.ID })
	return out
}

// handleStartMigration is POST /v1/migrations: start (or resume) one.
func (g *Gate) handleStartMigration(w http.ResponseWriter, r *http.Request) {
	var spec MigrationSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInsertBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad migration body: " + err.Error()})
		return
	}
	m, err := g.StartMigration(spec)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrMigrationExists) {
			status = http.StatusConflict
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": spec.ID, "phase": m.Phase()})
}

// handleListMigrations is GET /v1/migrations.
func (g *Gate) handleListMigrations(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Migrations())
}

// handleAbortMigration is POST /v1/migrations/{id}/abort.
func (g *Gate) handleAbortMigration(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := g.AbortMigration(id); err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrMigrationUnknown):
			status = http.StatusNotFound
		case errors.Is(err, ErrMigrationCutOver):
			status = http.StatusConflict
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "phase": PhaseAborted})
}
