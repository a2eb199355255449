package chaos

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rdfcube/internal/gate"
	"rdfcube/internal/netchaos"
)

// rebalanceFleet is the world both rebalance scripts run in: three
// relationship-closed DisjointMeasures shards, each a node (the shape
// migration requires: /v1/snapshot + /v1/wal + POST /v1/datasets) behind
// a proxy injecting low-grade faults — including response truncation,
// which the migration pump must absorb without skipping records — plus
// the empty spare to migrate into and a gate with a migration state dir.
var rebalanceFleet = fleetSpec{
	obsPerDataset:    10,
	disjointMeasures: true,
	spare:            true,
	faults: netchaos.Config{
		RefuseProb: 0.02, DropProb: 0.01, TruncateProb: 0.01,
		LatencyProb: 0.08, Latency: 10 * time.Millisecond,
	},
}

// migration is the move under test: ONE dataset split off the middle
// shard onto the spare — a strict split when the shard owns several, a
// full move otherwise.
type migration struct {
	w      *World
	id     string
	source *shard
	spare  *shard
	moving string
	tpl    insertTemplate // inserts into the moving dataset
}

func (w *World) migration(id string) *migration {
	f := w.fleet
	m := &migration{w: w, id: id, source: f.shard(f.worlds[1].Name), spare: f.shard("spare"), moving: f.worlds[1].Datasets[0]}
	for _, tpl := range w.templates {
		if tpl.dataset == m.moving {
			m.tpl = tpl
		}
	}
	return m
}

// submit POSTs the spec through the admin surface.
func (m *migration) submit() {
	m.w.t.Helper()
	body, err := json.Marshal(gate.MigrationSpec{ID: m.id, Datasets: []string{m.moving}, From: m.source.name, To: m.spare.name})
	m.w.must(err, "marshaling the migration spec")
	code, rb, _, err := m.w.post(m.w.baseURL(), "/v1/migrations", body)
	if err != nil || code != http.StatusAccepted {
		m.w.fatalf("start migration %s: status %d err %v: %s", m.id, code, err, rb)
	}
}

// state reads the migration's state off the live gate.
func (m *migration) state() (gate.MigrationState, bool) {
	for _, st := range m.w.fleet.g.Migrations() {
		if st.Spec.ID == m.id {
			return st, true
		}
	}
	return gate.MigrationState{}, false
}

// expectOwner reads the moving dataset's owner and the epoch off the
// gate's admin surface.
func (m *migration) expectOwner(owner string, epoch int64, when string) {
	m.w.t.Helper()
	var sm gate.ShardMap
	m.w.must(m.w.getJSON(m.w.baseURL(), "/v1/shardmap", &sm), when+": GET /v1/shardmap")
	got := ""
	for _, sc := range sm.Shards {
		for _, ds := range sc.Datasets {
			if ds == m.moving {
				got = sc.Name
			}
		}
	}
	if got != owner || sm.Epoch != epoch || m.w.fleet.g.Epoch() != epoch {
		m.w.fatalf("%s: dataset %s owned by %q at epoch %d (gate says %d), want %q at epoch %d",
			when, m.moving, got, sm.Epoch, m.w.fleet.g.Epoch(), owner, epoch)
	}
}

// expectLanded lands one insert into the moving dataset through the gate
// and asks the shards' own servers — past their proxies — where it went.
// A shard answers 400 "unknown observation" for a URI it has never seen:
// the same signal the gate's merge reads as "not on this shard".
func (m *migration) expectLanded(uri string, on, notOn *shard, when string) {
	m.w.t.Helper()
	m.w.land(m.tpl, uri, 10*time.Second)
	for _, s := range []*shard{on, notOn} {
		code, body, err := m.w.fetchBody(s.node.url(), relatedPath(uri))
		has := code == http.StatusOK
		if err != nil || (!has && code != http.StatusNotFound && code != http.StatusBadRequest) {
			m.w.fatalf("%s: direct read of %s on %s: status %d err %v: %s", when, uri, s.name, code, err, body)
		}
		if has != (s == on) {
			m.w.fatalf("%s: insert %s on %s = %v; it belongs on %s and nowhere else", when, uri, s.name, has, on.name)
		}
	}
}

// Rebalance is the migration-under-fire soak: mixed traffic flows while a
// migration splits one dataset off a source shard onto the spare; the
// spare is partitioned so the migration stalls mid-copy; the gate is then
// power-cut with the migration in flight; a successor gate resumes it
// from the persisted state and carries it through cutover and drain. The
// invariants are the rebalance contract:
//
//   - reads keep answering while the migration is stalled — pre-cutover
//     the source never stops being authoritative, so a dark TARGET must be
//     invisible to clients — and the map does not flip;
//   - the resumed migration completes: the map flips to epoch+1 and the
//     moved dataset routes to the spare (a post-cutover insert lands on the
//     spare's server and never touches the source);
//   - every insert the gate may have acknowledged across the whole run —
//     including the ones that raced the cutover — is reconciled, and the
//     merged answers converge byte-for-byte with the oracle.
func Rebalance(t testing.TB, opt Options) {
	t.Helper()
	w := New(t, opt)
	defer w.Close()
	f := w.buildFleet(rebalanceFleet)
	m := w.migration("rb1")
	quarter := opt.round() / 4
	w.awaitReady("ready", 10*time.Second)

	w.traffic(0, op{90, w.readOnce}, op{10, w.insertOnce})
	time.Sleep(quarter)
	w.checkTraffic("normal phase")

	// Partition the TARGET, then start the migration into it — the copy
	// stalls against a blackholed spare while reads flow on.
	m.spare.partition(true)
	m.submit()
	w.window.Store(true)
	w.logf("rebalance: migration %s started against a partitioned target", m.id)
	time.Sleep(max(opt.round()/2, time.Second))
	w.window.Store(false)
	w.checkTraffic("stall phase")
	m.expectOwner(m.source.name, 1, "with the target partitioned")
	if st, ok := m.state(); !ok {
		w.fatalf("migration %s unknown to the gate", m.id)
	} else if st.Phase == gate.PhaseCutover || st.Phase == gate.PhaseDrain || st.Phase == gate.PhaseDone {
		w.fatalf("migration reached phase %s against a partitioned target", st.Phase)
	}
	if w.windowOK.Load() == 0 {
		w.fatalf("no successful reads while the migration was stalled: a dark TARGET must be invisible pre-cutover")
	}

	// Power-cut the gate with the migration in flight, heal the target,
	// and boot a successor from the fallen gate's map. Workers keep
	// hammering; their transport errors during the outage are the point.
	lastMap := f.g.CurrentMap()
	f.stopGate()
	w.logf("rebalance: gate power-cut at epoch %d", lastMap.Epoch)
	m.spare.partition(false)
	w.must(f.startGate(w, lastMap), "restarting gate")
	resumed, err := f.g.ResumeMigrations()
	w.must(err, "ResumeMigrations")
	if len(resumed) != 1 {
		w.fatalf("ResumeMigrations resumed %d migrations, want 1", len(resumed))
	}
	w.logf("rebalance: successor gate resumed %s in phase %s", m.id, resumed[0].Phase())

	// The resumed migration must carry through to done under live
	// traffic: copy, catch-up, double-read, cutover, drain.
	for waitBy := time.Now().Add(45 * time.Second); ; time.Sleep(poll) {
		st, ok := m.state()
		if ok && st.Phase == gate.PhaseDone {
			if st.Copied == 0 {
				w.fatalf("migration done with Copied == 0: the bootstrap never ran")
			}
			break
		}
		if ok && st.Phase == gate.PhaseAborted {
			w.fatalf("resumed migration aborted itself")
		}
		if time.Now().After(waitBy) {
			w.fatalf("migration stuck in phase %s (error %q) after resume", st.Phase, st.Error)
		}
	}
	w.checkTraffic("resume phase")

	// Cutover visible: epoch bumped, the moved dataset routed to the
	// spare, and a post-cutover insert lands on the spare's server —
	// never on the source's.
	m.expectOwner(m.spare.name, 2, "after the migration")
	postURI := "http://example.org/rebalance/post-cutover"
	m.expectLanded(postURI, m.spare, m.source, "post-cutover")

	// Let traffic settle on the new map, then stop and settle the books.
	time.Sleep(quarter)
	w.stopTraffic("settle phase")
	landed := w.reconcile(20 * time.Second)
	converged := w.convergeAll(30 * time.Second)
	w.converge(w.baseURL(), f.oracleTS.URL, postURI, 10*time.Second)
	w.exercised()
	st, _ := m.state()
	w.logf("rebalance: soak complete: %v, %d landed, %d URIs converged, migration copied %d pumped %d mismatches %d",
		w, landed, converged, st.Copied, st.Pumped, st.Mismatches)
}

// RebalanceRollback is the abort story: the migration target is
// partitioned for good, the migration is aborted while stuck in copy, and
// the source must remain fully authoritative — epoch and ownership
// unchanged, writes to the migrating dataset landing on the source and
// never the spare, the aborted state file never revived by a resume scan,
// and the gate's answers still byte-equal to the oracle.
func RebalanceRollback(t testing.TB, opt Options) {
	t.Helper()
	w := New(t, opt)
	defer w.Close()
	f := w.buildFleet(rebalanceFleet)
	m := w.migration("rb-abort")
	w.awaitReady("ready", 10*time.Second)

	// Permanent partition: the migration will never reach its target.
	m.spare.partition(true)
	m.submit()

	// Abort while the copy is still retrying against the blackhole: wait
	// for the runner to be in copy, then pull the cord through the admin
	// surface.
	for abortBy := time.Now().Add(5 * time.Second); ; time.Sleep(poll / 2) {
		st, ok := m.state()
		if ok && st.Phase == gate.PhaseCopy && st.Error == "" {
			break
		}
		if time.Now().After(abortBy) {
			w.fatalf("migration never settled into copy: phase %s error %q", st.Phase, st.Error)
		}
	}
	code, rb, _, err := w.post(w.baseURL(), "/v1/migrations/"+m.id+"/abort", nil)
	if err != nil || code != http.StatusOK {
		w.fatalf("abort: status %d err %v: %s", code, err, rb)
	}

	// Rollback contract: epoch unchanged, ownership unchanged, the
	// aborted state persisted, and a later resume scan leaves it dead.
	m.expectOwner(m.source.name, 1, "after abort")
	if st, ok := m.state(); !ok || st.Phase != gate.PhaseAborted {
		w.fatalf("migration state after abort: %+v", st)
	}
	data, err := os.ReadFile(filepath.Join(f.stateDir, m.id+".json"))
	if err != nil || !bytes.Contains(data, []byte(`"aborted"`)) {
		w.fatalf("aborted state file: %s (err %v)", data, err)
	}
	if resumed, err := f.g.ResumeMigrations(); err != nil || len(resumed) != 0 {
		w.fatalf("resume scan revived the aborted migration: %d runners (err %v)", len(resumed), err)
	}

	// The source is still authoritative: a write to the migrating dataset
	// lands on the source's server, never the spare's, and the gate's
	// merged answer matches the oracle.
	uri := "http://example.org/rebalance/after-abort"
	m.expectLanded(uri, m.source, m.spare, "post-abort")
	// Heal before the equality check: while the spare is dark the gate
	// honestly flags every answer partial (it fans to all shards, even
	// empty ones), and byte-equality is only claimed of complete answers.
	m.spare.partition(false)
	for _, u := range append([]string{uri}, w.sampled[:4]...) {
		w.converge(w.baseURL(), f.oracleTS.URL, u, 15*time.Second)
	}
	w.logf("rebalance: rollback verified: source %s stayed authoritative through an aborted migration", m.source.name)
}
