// Package wal is the write-ahead log that makes live writes durable:
// every observation insert and every dataset registration the serving
// layer accepts is appended — length-prefixed, CRC-32-checked, fsynced —
// before the client sees an ack, so `snapshot + WAL suffix` always
// reconstructs the pre-crash state.
//
// # Format
//
//	header  magic "RDFCWAL" ++ version byte (8 bytes; version 2)
//	record  uint32 LE payload length ++ payload ++ uint32 LE CRC-32
//	        (IEEE) of the payload
//
// Record payloads reuse the snapshot's term-encoding conventions
// (varints, varint-length-prefixed strings) but carry terms inline —
// an append-only log cannot share a dictionary section. Both record
// kinds share one layout:
//
//	byte    record kind (1 = insert, 2 = dataset registration)
//	uvarint dataset index (position in the snapshot's DSET order)
//	term    observation URI (kind 2: the dataset URI)
//	uvarint n, then n dimension value terms (dataset schema order;
//	        kind 2: the schema's dimension IRIs)
//	uvarint m, then m measure value terms  (dataset schema order;
//	        kind 2: the schema's measure IRIs)
//	term    = kind byte ++ str value ++ str datatype ++ str lang
//
// # Versions
//
// Version 1 logs hold inserts only. Version 2 added the registration
// kind, and the version byte moved with it: a binary that knows only
// version 1 rejects kind 2, and would read a registration frame as a
// torn tail and truncate it together with every acknowledged insert
// after it. The bumped byte makes such a binary refuse the whole file as
// corrupt instead, and set it aside untouched. Open reads a version-1
// log and rewrites it atomically as version 2 before anything is
// appended.
//
// # Crash semantics
//
// Append and AppendBatch frame, write and fsync their records; they
// return nil only once every record is durable, and the caller
// acknowledges the write only after that. On any write or sync error
// the log is repaired by truncating back to the last durable record, so
// a failed (never-acked) append leaves no trace; if even the repair
// fails the log reports itself Broken and the caller degrades to
// read-only.
//
// Open replays the log: it parses records until the first torn or
// corrupt one, truncates the tail off (a torn tail is the signature of
// a crash mid-append — that record was never acked), and returns the
// surviving records. A log whose header is damaged is renamed aside with
// faultfs.Quarantine, its bytes kept for inspection, and a fresh log
// takes its place; Log.Quarantined names the renamed file. Open never
// panics, whatever the file holds.
//
// Truncate resets the log to just its header. The serving layer calls
// it only after a snapshot checkpoint containing every logged record
// has been durably committed.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/rdf"
)

// magic identifies a WAL stream; the trailing byte is the format version.
var magic = [8]byte{'R', 'D', 'F', 'C', 'W', 'A', 'L', 2}

// magicV1 is the header of a version-1 log (inserts only), which Open
// upgrades in place.
var magicV1 = [8]byte{'R', 'D', 'F', 'C', 'W', 'A', 'L', 1}

// HeaderLen is the byte length of the log header. Record frames start at
// this offset; the replication layer's logical offsets count record bytes
// from here.
const HeaderLen = int64(len(magic))

// maxRecord bounds one record payload (16 MiB); larger length prefixes
// are treated as corruption before any allocation happens.
const maxRecord = 1 << 24

// Record kinds, the first payload byte.
const (
	recInsert   = 1
	recRegister = 2
)

// ErrCorrupt reports a log whose header is neither a known magic nor a
// prefix of one and which Open could not quarantine.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrBroken is returned by Append once the log device has failed in a
// way repair could not undo; the caller must stop acknowledging writes.
var ErrBroken = errors.New("wal: log broken, writes disabled")

// Record is one logged write, carrying everything needed to redo it
// against the snapshot's corpus. The zero value of Register means an
// insert (kind 1): the observation's dataset position in the snapshot's
// DSET order and the full value rows in schema order. A registration
// (kind 2) reuses the same fields: Dataset is the corpus index the new
// dataset takes, URI is the dataset URI, and DimValues/MeasureValues are
// the schema's dimension and measure IRIs in schema order.
type Record struct {
	// Dataset is the corpus index of the observation's dataset (of the
	// registered dataset, for a registration).
	Dataset int
	// URI is the observation URI (the dataset URI, for a registration).
	URI rdf.Term
	// DimValues are the dimension values in dataset schema order (the
	// schema's dimensions, for a registration).
	DimValues []rdf.Term
	// MeasureValues are the measure values in dataset schema order (the
	// schema's measures, for a registration).
	MeasureValues []rdf.Term
	// Register marks a dataset registration (kind 2).
	Register bool
}

// Log is an open write-ahead log positioned for appending.
//
// A Log is NOT goroutine-safe: callers must serialize Append, Truncate
// and the accessors under their own lock (the serving layer uses its
// state RWMutex — writes append under the write lock, and checkpoint
// truncation re-acquires it, so the log never changes between the size
// check and the truncate).
type Log struct {
	fs     faultfs.FS
	f      faultfs.File
	path   string
	size   int64 // bytes of header + committed records
	broken bool

	repaired    int64  // torn-tail bytes discarded by Open
	quarantined string // where Open renamed an unreadable log; "" when none
}

// Open opens (creating if needed) the WAL at path on fsys, replays the
// existing records, repairs a torn tail, and returns the log positioned
// for appending plus the replayed records. A log whose header it cannot
// read is quarantined (see Quarantined) and replaced by an empty one. The
// returned log's header is durable before Open returns.
func Open(fsys faultfs.FS, path string) (*Log, []Record, error) {
	data, err := fsys.ReadFile(path) // a missing log reads as empty
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	var header [8]byte
	copy(header[:], data)
	switch {
	case len(data) < len(magic) && bytes.HasPrefix(magic[:], data):
		// Empty, or a torn header: that can only come from a crash during
		// creation, before Open ever returned — nothing was logged.
		return create(fsys, path, "")
	case header != magic && header != magicV1:
		// Foreign data, or a version this binary does not know: no record
		// in it can be trusted, and none may be dropped silently, so the
		// file is renamed aside with its bytes intact and a fresh log
		// takes its place.
		q, err := faultfs.Quarantine(fsys, path)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %s: unreadable header, and quarantining it failed: %v", ErrCorrupt, path, err)
		}
		return create(fsys, path, q)
	}

	// Keep the records up to the first torn or corrupt frame; the rest is
	// the tail of an append that was never acknowledged.
	recs, n, _ := ParseFrames(data[HeaderLen:])
	good := HeaderLen + n
	upgrade := header == magicV1
	if upgrade {
		// The rewrite drops the torn tail too; a crash during it leaves the
		// version-1 file, which the next Open upgrades again.
		if err := faultfs.WriteFileAtomic(fsys, path, append(magic[:], data[HeaderLen:good]...)); err != nil {
			return nil, nil, fmt.Errorf("wal: upgrading %s to version %d: %w", path, magic[7], err)
		}
	}

	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	w := &Log{fs: fsys, f: f, path: path, size: good, repaired: int64(len(data)) - good}
	if w.repaired > 0 && !upgrade {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: repairing torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: syncing repaired %s: %w", path, err)
		}
	}
	return w, recs, nil
}

// create (re-)writes a log that is just the header and makes it durable
// before any append; quarantined names the file an unreadable log at path
// was renamed to, if any.
func create(fsys faultfs.FS, path, quarantined string) (*Log, []Record, error) {
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: initializing %s: %w", path, err)
	}
	if _, err := f.Write(magic[:]); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: writing header of %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: syncing header of %s: %w", path, err)
	}
	return &Log{fs: fsys, f: f, path: path, size: HeaderLen, quarantined: quarantined}, nil, nil
}

// Append durably logs one record: nil means the record is on stable
// storage and the write may be acknowledged. It is AppendBatch of one
// record.
func (w *Log) Append(rec Record) error {
	return w.AppendBatch([]Record{rec})
}

// AppendBatch durably logs several records with a single fsync: every
// frame is written, then one Sync covers them all. nil means ALL records
// are on stable storage. Followers use it to persist a replicated batch
// without paying one fsync per record; the primary appends one record
// per acknowledged write. On failure the log truncates back to its last
// durable record, so no record of a failed batch can resurface after a
// restart; if that repair fails too, the log is Broken and every later
// append fails fast.
func (w *Log) AppendBatch(recs []Record) error {
	if w.broken {
		return ErrBroken
	}
	var frames []byte
	for _, rec := range recs {
		frames = appendFrame(frames, rec)
	}
	if len(frames) == 0 {
		return nil
	}
	if _, err := w.f.Write(frames); err != nil {
		return w.repairOr(fmt.Errorf("wal: append: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return w.repairOr(fmt.Errorf("wal: fsync: %w", err))
	}
	w.size += int64(len(frames))
	return nil
}

// repairOr truncates the log back to the last durable record after a
// failed append and returns err; if the truncate itself fails the log
// is marked broken.
func (w *Log) repairOr(err error) error {
	if terr := w.f.Truncate(w.size); terr != nil {
		w.broken = true
		return fmt.Errorf("%w (repair failed: %v; original: %v)", ErrBroken, terr, err)
	}
	return err
}

// Truncate resets the log to just its header — every logged record is
// discarded. Callers invoke it only after a checkpoint containing those
// records has been durably committed.
func (w *Log) Truncate() error {
	if w.broken {
		return ErrBroken
	}
	if err := w.f.Truncate(HeaderLen); err != nil {
		w.broken = true
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.broken = true
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	w.size = HeaderLen
	return nil
}

// ReadRange returns up to max bytes of durable record frames starting at
// byte offset from (header included in the offset arithmetic, so the
// first record frame lives at HeaderLen). It reads only committed bytes —
// never a torn tail being appended — and trims the window back to the
// last complete frame boundary, so the returned bytes always parse with
// ParseFrames. A from that is inside the durable range but not on a
// frame boundary is reported by ErrNotBoundary (the caller turns it into
// a client error); from beyond the durable size is an error too.
//
// The read goes through the filesystem, not the append handle, and costs
// O(log size); callers serialize it with Append/Truncate under the same
// lock they already hold for those.
func (w *Log) ReadRange(from int64, max int) ([]byte, error) {
	if w.broken {
		return nil, ErrBroken
	}
	if from < HeaderLen || from > w.size {
		return nil, fmt.Errorf("wal: read offset %d outside durable range [%d, %d]", from, HeaderLen, w.size)
	}
	if from == w.size || max <= 0 {
		return nil, nil
	}
	data, err := w.fs.ReadFile(w.path)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", w.path, err)
	}
	end := w.size // never serve past the durable mark, whatever the file holds
	if int64(len(data)) < end {
		return nil, fmt.Errorf("wal: %s shrank under us: %d bytes on disk, %d durable", w.path, len(data), end)
	}
	if hi := from + int64(max); hi < end {
		end = hi
	}
	window := data[from:end]
	_, good, err := ParseFrames(window)
	if err != nil && good == 0 {
		return nil, fmt.Errorf("%w: offset %d", ErrNotBoundary, from)
	}
	if good == 0 && end < w.size {
		// The window cut the first frame short of the durable end: widen to
		// that one whole frame so a tiny max can never wedge a reader.
		if len(data)-int(from) < 4 {
			return nil, fmt.Errorf("%w: offset %d", ErrNotBoundary, from)
		}
		n := int64(binary.LittleEndian.Uint32(data[from:]))
		if n > maxRecord || from+4+n+4 > w.size {
			return nil, fmt.Errorf("%w: offset %d", ErrNotBoundary, from)
		}
		window = data[from : from+4+n+4]
		_, good, err = ParseFrames(window)
		if err != nil {
			return nil, fmt.Errorf("%w: offset %d", ErrNotBoundary, from)
		}
	}
	if good == 0 {
		// Frames never straddle the durable mark, so a true boundary with
		// durable bytes ahead always parses at least one complete frame.
		// Zero frames means the offset landed inside a record — typically a
		// misread length prefix that made the "frame" look cut short.
		return nil, fmt.Errorf("%w: offset %d", ErrNotBoundary, from)
	}
	return window[:good], nil
}

// ErrNotBoundary reports a ReadRange offset that falls inside the durable
// range but not on a record-frame boundary.
var ErrNotBoundary = errors.New("wal: offset is not a record boundary")

// ParseFrames decodes consecutive record frames from the start of data,
// re-validating each frame's length and CRC. It returns the decoded
// records and the number of bytes they occupied. A trailing incomplete
// frame (the stream was cut mid-frame) simply stops the parse — the
// caller resumes at the returned boundary. err is non-nil only when a
// COMPLETE frame in data is corrupt (bad CRC or undecodable payload):
// that is data corruption, not truncation, and must not be skipped over.
func ParseFrames(data []byte) (recs []Record, good int64, err error) {
	off := 0
	for {
		if len(data)-off < 4 {
			return recs, int64(off), nil
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > maxRecord {
			return recs, int64(off), fmt.Errorf("wal: frame at %d: length %d exceeds limit", off, n)
		}
		if len(data)-off < 4+n+4 {
			return recs, int64(off), nil // cut mid-frame
		}
		payload := data[off+4 : off+4+n]
		crc := binary.LittleEndian.Uint32(data[off+4+n:])
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, int64(off), fmt.Errorf("wal: frame at %d: CRC mismatch", off)
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return recs, int64(off), fmt.Errorf("wal: frame at %d: %w", off, derr)
		}
		recs = append(recs, rec)
		off += 4 + n + 4
	}
}

// Size reports the durable log length in bytes (header included).
func (w *Log) Size() int64 { return w.size }

// RecordBytes reports how many record bytes the log holds (0 right after
// Truncate).
func (w *Log) RecordBytes() int64 { return w.size - HeaderLen }

// RepairedBytes reports how many torn-tail bytes Open discarded.
func (w *Log) RepairedBytes() int64 { return w.repaired }

// Quarantined reports where Open renamed a log whose header it could not
// read ("" when it did not): the log itself then started empty.
func (w *Log) Quarantined() string { return w.quarantined }

// Broken reports whether the log device has failed beyond repair.
func (w *Log) Broken() bool { return w.broken }

// Close releases the file handle. It does not sync: every durable
// record was synced by the Append that wrote it.
func (w *Log) Close() error { return w.f.Close() }

// --- record payload encoding (snapshot conventions, inline terms) ---

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendTerm(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	b = appendString(b, t.Value)
	b = appendString(b, t.Datatype)
	return appendString(b, t.Lang)
}

// appendFrame appends rec's frame to b: the length prefix, the payload
// encoded in place, and the payload's CRC.
func appendFrame(b []byte, rec Record) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	kind := byte(recInsert)
	if rec.Register {
		kind = recRegister
	}
	b = append(b, kind)
	b = binary.AppendUvarint(b, uint64(rec.Dataset))
	b = appendTerm(b, rec.URI)
	b = binary.AppendUvarint(b, uint64(len(rec.DimValues)))
	for _, t := range rec.DimValues {
		b = appendTerm(b, t)
	}
	b = binary.AppendUvarint(b, uint64(len(rec.MeasureValues)))
	for _, t := range rec.MeasureValues {
		b = appendTerm(b, t)
	}
	payload := b[start+4:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// rcur is a bounds-checked cursor over one record payload.
type rcur struct {
	b   []byte
	off int
}

func (c *rcur) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *rcur) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, fmt.Errorf("truncated at %d", c.off)
	}
	b := c.b[c.off]
	c.off++
	return b, nil
}

func (c *rcur) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(c.b)-c.off) {
		return "", fmt.Errorf("string length %d exceeds payload at %d", n, c.off)
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s, nil
}

func (c *rcur) term() (rdf.Term, error) {
	kind, err := c.byte()
	if err != nil {
		return rdf.Term{}, err
	}
	if kind > byte(rdf.LiteralKind) {
		return rdf.Term{}, fmt.Errorf("unknown term kind %d", kind)
	}
	val, err := c.str()
	if err != nil {
		return rdf.Term{}, err
	}
	dt, err := c.str()
	if err != nil {
		return rdf.Term{}, err
	}
	lang, err := c.str()
	if err != nil {
		return rdf.Term{}, err
	}
	return rdf.Term{Kind: rdf.Kind(kind), Value: val, Datatype: dt, Lang: lang}, nil
}

func (c *rcur) termList(maxLen int) ([]rdf.Term, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(maxLen) {
		return nil, fmt.Errorf("list length %d exceeds payload", n)
	}
	out := make([]rdf.Term, n)
	for i := range out {
		if out[i], err = c.term(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func decodeRecord(payload []byte) (Record, error) {
	c := &rcur{b: payload}
	kind, err := c.byte()
	if err != nil {
		return Record{}, err
	}
	if kind != recInsert && kind != recRegister {
		return Record{}, fmt.Errorf("unknown record kind %d", kind)
	}
	rec := Record{Register: kind == recRegister}
	ds, err := c.uvarint()
	if err != nil {
		return Record{}, err
	}
	rec.Dataset = int(ds)
	if rec.URI, err = c.term(); err != nil {
		return Record{}, err
	}
	// Each term costs at least 4 bytes (kind + three length prefixes).
	if rec.DimValues, err = c.termList(len(payload) / 4); err != nil {
		return Record{}, err
	}
	if rec.MeasureValues, err = c.termList(len(payload) / 4); err != nil {
		return Record{}, err
	}
	if c.off != len(payload) {
		return Record{}, fmt.Errorf("%d trailing bytes", len(payload)-c.off)
	}
	return rec, nil
}
