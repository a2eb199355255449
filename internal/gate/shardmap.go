package gate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"sync/atomic"

	"rdfcube/internal/front"
	"rdfcube/internal/serve"
)

// The live, versioned shard map. PR 8 froze the map at gate start; this
// file makes it a first-class object with an epoch number, structural
// validation, a monotonic-epoch transition rule, and an atomic swap the
// read/write paths observe without locks — the substrate live
// rebalancing (migrate.go) flips ownership through.

// ShardMap is the versioned shard topology: an epoch plus the entries.
// Epochs are the map's logical clock: every change bumps the epoch, a
// gate only ever moves forward, and operators can read "which map is
// this gate on?" off /v1/stats.
type ShardMap struct {
	Epoch  int64         `json:"epoch"`
	Shards []ShardConfig `json:"shards"`
}

// MigrationSpec names one planned dataset migration: move Datasets from
// shard From to shard To through the copy → catch-up → verify → cutover
// → drain state machine.
type MigrationSpec struct {
	// ID names the migration; it keys the persisted state file and the
	// admin endpoints. Must be unique and non-empty.
	ID string `json:"id"`
	// Datasets are the dataset URIs to move; all must be owned by From.
	Datasets []string `json:"datasets"`
	// From / To are shard names in the current map.
	From string `json:"from"`
	To   string `json:"to"`
}

// ShardMapFile is the cubegate map-file shape: the versioned map plus
// the migrations to run. A bare shard array (the PR 8 format) still
// loads as epoch 0 with no migrations.
type ShardMapFile struct {
	Epoch      int64           `json:"epoch"`
	Shards     []ShardConfig   `json:"shards"`
	Migrations []MigrationSpec `json:"migrations,omitempty"`
}

// Map returns the versioned map portion of the file.
func (f ShardMapFile) Map() ShardMap { return ShardMap{Epoch: f.Epoch, Shards: f.Shards} }

// ValidateShardMap checks one map's structural invariants: a positive
// shard count, unique non-empty shard names, a primary per shard, and
// DISJOINT dataset ownership — two owners for one dataset would make
// write routing ambiguous and double-apply inserts.
func ValidateShardMap(m ShardMap) error {
	if m.Epoch < 0 {
		return fmt.Errorf("gate: negative shard map epoch %d", m.Epoch)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("gate: no shards configured")
	}
	names := map[string]bool{}
	owner := map[string]string{}
	for _, sc := range m.Shards {
		if sc.Name == "" {
			return fmt.Errorf("gate: shard with empty name")
		}
		if names[sc.Name] {
			return fmt.Errorf("gate: duplicate shard name %q", sc.Name)
		}
		names[sc.Name] = true
		if sc.Primary == "" {
			return fmt.Errorf("gate: shard %q has no primary", sc.Name)
		}
		for _, ds := range sc.Datasets {
			if prev, dup := owner[ds]; dup {
				return fmt.Errorf("gate: dataset %q owned by both %q and %q", ds, prev, sc.Name)
			}
			owner[ds] = sc.Name
		}
	}
	return nil
}

// migrationIDPattern is the one rule for a migration ID: 1–128 of
// A–Z a–z 0–9 . _ -, not starting with a dot. The ID names its state
// file (<id>.json) in the migration state directory, so it must be a
// plain file name that cannot reach outside that directory.
var migrationIDPattern = regexp.MustCompile(`^[A-Za-z0-9_-][A-Za-z0-9._-]{0,127}$`)

func checkMigrationID(id string) error {
	switch {
	case id == "":
		return fmt.Errorf("gate: migration with empty id")
	case !migrationIDPattern.MatchString(id):
		return fmt.Errorf("gate: migration id %q is not a plain name (1-128 of A-Z a-z 0-9 . _ -, not starting with .)", id)
	}
	return nil
}

// ValidateMigrations checks migration specs against the map they ride
// with: unique plain-name IDs, known distinct From/To shards, and every
// dataset owned by its From shard.
func ValidateMigrations(m ShardMap, migs []MigrationSpec) error {
	names := map[string]bool{}
	owner := map[string]string{}
	for _, sc := range m.Shards {
		names[sc.Name] = true
		for _, ds := range sc.Datasets {
			owner[ds] = sc.Name
		}
	}
	ids := map[string]bool{}
	for _, mg := range migs {
		if err := checkMigrationID(mg.ID); err != nil {
			return err
		}
		if ids[mg.ID] {
			return fmt.Errorf("gate: duplicate migration id %q", mg.ID)
		}
		ids[mg.ID] = true
		if !names[mg.From] {
			return fmt.Errorf("gate: migration %q: unknown source shard %q", mg.ID, mg.From)
		}
		if !names[mg.To] {
			return fmt.Errorf("gate: migration %q: unknown target shard %q", mg.ID, mg.To)
		}
		if mg.From == mg.To {
			return fmt.Errorf("gate: migration %q: source and target are both %q", mg.ID, mg.From)
		}
		if len(mg.Datasets) == 0 {
			return fmt.Errorf("gate: migration %q: no datasets", mg.ID)
		}
		for _, ds := range mg.Datasets {
			if owner[ds] != mg.From {
				return fmt.Errorf("gate: migration %q: dataset %q is not owned by source shard %q (owner: %q)",
					mg.ID, ds, mg.From, owner[ds])
			}
		}
	}
	return nil
}

// ErrStaleEpoch marks a rejected map transition: the proposed epoch is
// behind (or ties without being identical to) the installed one.
var ErrStaleEpoch = errors.New("gate: stale shard map epoch")

// ValidateTransition checks that next may replace cur: epochs strictly
// increase, except that an IDENTICAL map at the same epoch is an
// allowed no-op (file watchers re-deliver unchanged maps on every poll).
func ValidateTransition(cur, next ShardMap) error {
	if next.Epoch < cur.Epoch {
		return fmt.Errorf("%w: have %d, got %d", ErrStaleEpoch, cur.Epoch, next.Epoch)
	}
	if next.Epoch == cur.Epoch && !sameMap(cur, next) {
		return fmt.Errorf("%w: map changed without an epoch bump (epoch %d)", ErrStaleEpoch, cur.Epoch)
	}
	return nil
}

// sameMap compares two maps structurally via their canonical JSON (the
// struct field order is fixed, so equal maps marshal equal).
func sameMap(a, b ShardMap) bool {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// copyMap deep-copies a map so the installed route table never aliases
// caller-owned slices.
func copyMap(m ShardMap) ShardMap {
	out := ShardMap{Epoch: m.Epoch, Shards: make([]ShardConfig, len(m.Shards))}
	for i, sc := range m.Shards {
		sc.Datasets = append([]string(nil), sc.Datasets...)
		out.Shards[i] = sc
	}
	return out
}

// routeTable is one immutable routing epoch: the map it was built from
// plus the derived shard objects and indexes. The gate swaps whole
// tables through an atomic pointer; requests load the pointer once and
// route against a consistent view for their whole lifetime.
type routeTable struct {
	m         ShardMap
	shards    []*shard
	byDataset map[string]*shard
	byName    map[string]*shard
}

// table returns the current route table.
func (g *Gate) table() *routeTable { return g.rt.Load() }

// buildTable derives a route table, pooling targets by (shard, role,
// URL) so breaker state and health SURVIVE map swaps — a reload must
// not amnesty a tripped breaker or blank the prober's verdicts.
func (g *Gate) buildTable(m ShardMap) *routeTable {
	m = copyMap(m)
	t := &routeTable{
		m:         m,
		byDataset: make(map[string]*shard),
		byName:    make(map[string]*shard, len(m.Shards)),
	}
	for _, sc := range m.Shards {
		sh := &shard{
			name:     sc.Name,
			datasets: append([]string(nil), sc.Datasets...),
			primary:  g.pooledTarget(sc.Name, "primary", sc.Primary),
		}
		if sc.Replica != "" {
			sh.replica = g.pooledTarget(sc.Name, "replica", sc.Replica)
		}
		for _, ds := range sc.Datasets {
			t.byDataset[ds] = sh
		}
		t.byName[sc.Name] = sh
		t.shards = append(t.shards, sh)
	}
	return t
}

// pooledTarget returns the long-lived endpoint object for (shard, role,
// url), creating it on first use.
func (g *Gate) pooledTarget(shardName, role, url string) *target {
	url = trimBase(url)
	key := shardName + "\x00" + role + "\x00" + url
	g.targetsMu.Lock()
	defer g.targetsMu.Unlock()
	if t := g.targets[key]; t != nil {
		return t
	}
	t := &target{
		shardName: shardName,
		role:      role,
		url:       url,
		breaker:   newBreaker(g.cfg.BreakerThreshold, g.cfg.BreakerBackoff),
		latency:   g.rec.Histogram(targetHistName(shardName, role)),
	}
	t.healthy.Store(true)
	g.targets[key] = t
	return t
}

// CurrentMap returns a copy of the installed shard map.
func (g *Gate) CurrentMap() ShardMap { return copyMap(g.table().m) }

// Epoch returns the installed map's epoch.
func (g *Gate) Epoch() int64 { return g.table().m.Epoch }

// SwapMap validates and atomically installs a new shard map. Structural
// problems and epoch regressions are rejected; re-installing the
// identical map at the current epoch is a silent no-op. On success the
// OnMapChange hook (if any) observes the new map.
func (g *Gate) SwapMap(m ShardMap) error {
	if err := ValidateShardMap(m); err != nil {
		return err
	}
	g.swapMu.Lock()
	cur := g.rt.Load()
	if err := ValidateTransition(cur.m, m); err != nil {
		g.swapMu.Unlock()
		return err
	}
	if m.Epoch == cur.m.Epoch {
		g.swapMu.Unlock()
		return nil
	}
	g.rt.Store(g.buildTable(m))
	g.swapMu.Unlock()
	g.rec.Count(CtrMapSwaps, 1)
	g.log("shard map swapped: epoch %d -> %d (%d shards)", cur.m.Epoch, m.Epoch, len(m.Shards))
	if g.onMapChange != nil {
		g.onMapChange(copyMap(m))
	}
	return nil
}

// handleGetShardMap serves the installed map.
func (g *Gate) handleGetShardMap(w http.ResponseWriter, r *http.Request) {
	front.WriteJSON(w, http.StatusOK, g.CurrentMap())
}

// handleSwapShardMap is the validated admin swap: 400 for structural
// problems, 409 for epoch regressions, 200 with the installed epoch on
// success (including the identical-map no-op).
func (g *Gate) handleSwapShardMap(w http.ResponseWriter, r *http.Request) {
	var m ShardMap
	if err := serve.DecodeWriteBody(w, r, &m); err != nil {
		front.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "bad shard map body: " + err.Error()})
		return
	}
	if err := g.SwapMap(m); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrStaleEpoch) {
			status = http.StatusConflict
		}
		front.WriteJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	front.WriteJSON(w, http.StatusOK, map[string]any{"epoch": g.Epoch(), "shards": len(g.table().shards)})
}

// rtPointer aliases the atomic pointer type (kept short at use sites).
type rtPointer = atomic.Pointer[routeTable]
