package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"rdfcube/internal/faultfs"
)

// A Rotator turns single-file checkpoints into crash-safe generation
// rotation around a base path P (say idx.bin):
//
//	P.000001, P.000002, …  immutable generation files (temp + fsync +
//	                       rename, so each is complete or absent)
//	P.CURRENT              pointer file naming the live generation,
//	                       itself replaced atomically
//	P.NNNNNN.corrupt,      quarantined generations: a head that fails
//	P.NNNNNN.corrupt.1, …  to decode is renamed aside, never deleted
//	                       or overwritten, so the evidence survives
//	                       for inspection
//	P                      a legacy pre-rotation snapshot, still loaded
//	                       when no CURRENT exists
//
// Write commits a new generation and only then moves CURRENT; a crash
// at any point leaves either the old pointer (and the old, intact
// generation) or the new pointer over a fully-synced file. A successful
// Write then prunes all but the keepGenerations newest generations
// (quarantined files are never pruned). Transient I/O errors are retried
// with capped exponential backoff. Load walks CURRENT, then remaining
// generations newest-first, then the legacy file, quarantining each
// corrupt candidate and falling back to the next — it returns an error
// only when nothing loads, and never panics.
type Rotator struct {
	// FS is the filesystem (faultfs.OS{} in production).
	FS faultfs.FS
	// Path is the base snapshot path.
	Path string
	// Retries is how many times a failed step is retried (zero means 4).
	Retries int
	// Backoff is the initial retry delay, doubling per attempt and
	// capped at 1s (zero means 25ms).
	Backoff time.Duration
	// Sleep is the delay hook (tests stub it); nil means time.Sleep.
	Sleep func(time.Duration)
	// Logf receives fallback/quarantine/retry notices; nil discards.
	Logf func(format string, a ...any)
}

// NewRotator returns a rotator over fsys with the default policy.
func NewRotator(fsys faultfs.FS, path string) *Rotator {
	return &Rotator{FS: fsys, Path: path}
}

const (
	currentSuffix   = ".CURRENT"
	genDigits       = 6
	keepGenerations = 2
)

func (r *Rotator) retries() int {
	if r.Retries <= 0 {
		return 4
	}
	return r.Retries
}

func (r *Rotator) logf(format string, a ...any) {
	if r.Logf != nil {
		r.Logf(format, a...)
	}
}

func (r *Rotator) sleep(d time.Duration) {
	if r.Sleep != nil {
		r.Sleep(d)
		return
	}
	time.Sleep(d)
}

// currentPath is the pointer file's path.
func (r *Rotator) currentPath() string { return r.Path + currentSuffix }

// genPath formats the path of generation n.
func (r *Rotator) genPath(n uint64) string {
	return fmt.Sprintf("%s.%0*d", r.Path, genDigits, n)
}

// genNumber parses a generation number out of name (a directory entry),
// returning ok=false for anything that is not `base.NNNNNN`.
func (r *Rotator) genNumber(name string) (uint64, bool) {
	base := filepath.Base(r.Path) + "."
	if !strings.HasPrefix(name, base) {
		return 0, false
	}
	digits := name[len(base):]
	if len(digits) != genDigits {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// CurrentGen reports the generation number the CURRENT pointer names,
// falling back to the newest generation on disk when the pointer is
// missing or malformed. ok is false when no generation exists at all
// (fresh directory, or legacy single-file layout). It reads the pointer
// file on every call — cheap, and always consistent with what Load
// would pick.
func (r *Rotator) CurrentGen() (gen uint64, ok bool) {
	if path, found, err := r.readCurrent(); err == nil && found {
		if n, okNum := r.genNumber(filepath.Base(path)); okNum {
			return n, true
		}
	}
	gens, err := r.generations()
	if err != nil || len(gens) == 0 {
		return 0, false
	}
	return gens[len(gens)-1], true
}

// generations lists the existing generation numbers, ascending.
func (r *Rotator) generations() ([]uint64, error) {
	dir := filepath.Dir(r.Path)
	names, err := r.FS.ReadDirNames(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var gens []uint64
	for _, name := range names {
		if n, ok := r.genNumber(name); ok {
			gens = append(gens, n)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// retry runs step until it succeeds or the retry budget is exhausted,
// backing off between attempts.
func (r *Rotator) retry(what string, step func() error) error {
	delay := r.Backoff
	if delay <= 0 {
		delay = 25 * time.Millisecond
	}
	var err error
	for attempt := 0; attempt <= r.retries(); attempt++ {
		if err = step(); err == nil {
			return nil
		}
		if attempt < r.retries() {
			r.logf("snapshot: %s failed (attempt %d/%d): %v; retrying in %s",
				what, attempt+1, r.retries()+1, err, delay)
			r.sleep(delay)
			delay *= 2
			if delay > time.Second {
				delay = time.Second
			}
		}
	}
	return fmt.Errorf("snapshot: %s: %w", what, err)
}

// Write durably commits data as the next generation: generation file
// first (atomic), CURRENT pointer second (atomic), old generations
// pruned last (best-effort). Every step retries transient errors with
// capped backoff. When Write returns nil the new generation is the one
// every future Load sees; when it returns an error the previous
// generation is untouched and still current.
func (r *Rotator) Write(data []byte) error {
	gens, err := r.generations()
	if err != nil {
		return fmt.Errorf("snapshot: listing generations: %w", err)
	}
	var next uint64 = 1
	if len(gens) > 0 {
		next = gens[len(gens)-1] + 1
	}
	genPath := r.genPath(next)
	if err := r.retry("writing generation "+filepath.Base(genPath), func() error {
		return faultfs.WriteFileAtomic(r.FS, genPath, data)
	}); err != nil {
		return err
	}
	if err := r.retry("updating "+filepath.Base(r.currentPath()), func() error {
		return faultfs.WriteFileAtomic(r.FS, r.currentPath(), []byte(filepath.Base(genPath)+"\n"))
	}); err != nil {
		return err
	}
	// Prune beyond the retention window (best effort; never the ones we
	// just wrote about, never quarantined files — they have a different
	// suffix and are invisible to generations()).
	if all, err := r.generations(); err == nil && len(all) > keepGenerations {
		for _, n := range all[:len(all)-keepGenerations] {
			if err := r.FS.Remove(r.genPath(n)); err != nil {
				r.logf("snapshot: pruning generation %d: %v", n, err)
			}
		}
	}
	return nil
}

// readCurrent resolves the CURRENT pointer to a full generation path.
// ok is false when no pointer exists.
func (r *Rotator) readCurrent() (string, bool, error) {
	data, err := r.FS.ReadFile(r.currentPath())
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return "", false, nil
		}
		return "", false, err
	}
	name := strings.TrimSpace(string(data))
	if _, okNum := r.genNumber(name); name == "" || !okNum {
		// A torn or garbage pointer: treat like a missing pointer and
		// fall back to the newest generation on disk.
		r.logf("snapshot: ignoring malformed CURRENT pointer %q", name)
		return "", false, nil
	}
	return filepath.Join(filepath.Dir(r.Path), name), true, nil
}

// Load resolves the freshest readable snapshot: the CURRENT generation,
// else remaining generations newest-first, else the legacy plain file.
// Corrupt candidates are quarantined (renamed aside) and skipped; the
// name of the file that loaded is returned alongside the snapshot.
// When nothing exists at all the error wraps fs.ErrNotExist (the caller
// computes a fresh state); when candidates exist but none loads, the
// error lists every failure.
func (r *Rotator) Load() (*Snapshot, string, error) {
	seen := map[string]bool{}
	var failures []string

	attempt := func(path string) (*Snapshot, bool) {
		if seen[path] {
			return nil, false
		}
		seen[path] = true
		data, err := r.FS.ReadFile(path)
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				failures = append(failures, fmt.Sprintf("%s: %v", path, err))
			}
			return nil, false
		}
		sn, err := Read(bytes.NewReader(data))
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", path, err))
			// Renamed aside, never deleted or overwritten, so the evidence
			// survives; a rename failure must not stop the fallback.
			if dst, qerr := faultfs.Quarantine(r.FS, path); qerr != nil {
				r.logf("snapshot: quarantining %s: %v", path, qerr)
			} else {
				r.logf("snapshot: quarantined corrupt %s -> %s (%v)", path, dst, err)
			}
			return nil, false
		}
		return sn, true
	}

	// 1. The CURRENT pointer's generation.
	if cur, ok, err := r.readCurrent(); err != nil {
		return nil, "", fmt.Errorf("snapshot: reading CURRENT: %w", err)
	} else if ok {
		if sn, ok := attempt(cur); ok {
			return sn, cur, nil
		}
		r.logf("snapshot: CURRENT generation %s unreadable, falling back", cur)
	}

	// 2. Remaining generations, newest first.
	gens, err := r.generations()
	if err != nil {
		return nil, "", fmt.Errorf("snapshot: listing generations: %w", err)
	}
	for i := len(gens) - 1; i >= 0; i-- {
		p := r.genPath(gens[i])
		if sn, ok := attempt(p); ok {
			r.logf("snapshot: recovered from previous generation %s", p)
			return sn, p, nil
		}
	}

	// 3. The legacy single-file snapshot.
	if sn, ok := attempt(r.Path); ok {
		return sn, r.Path, nil
	}

	if len(failures) == 0 { // no candidate exists: one that did either loaded or failed
		return nil, "", fmt.Errorf("snapshot: no snapshot at %s: %w", r.Path, fs.ErrNotExist)
	}
	return nil, "", fmt.Errorf("%w: no readable snapshot for %s: %s",
		ErrCorrupt, r.Path, strings.Join(failures, "; "))
}
