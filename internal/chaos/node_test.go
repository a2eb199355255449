package chaos

import (
	"bytes"
	"testing"
	"time"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/leakcheck"
	"rdfcube/internal/wal"
)

// TestRestartQuarantinesCorruptWAL: a node boots the way cubed does
// (serve.Open), so a write-ahead log whose header is destroyed between
// incarnations is quarantined with its bytes intact, and the node comes
// back serving every acknowledged insert. The fresh log then takes new
// inserts that survive a power cut.
func TestRestartQuarantinesCorruptWAL(t *testing.T) {
	leakcheck.Check(t)
	w := New(t, Options{Seed: 11, Workers: 2, Round: 200 * time.Millisecond, Logf: t.Logf})
	defer w.Close()
	n := w.paperNode("node")
	insertFor := func(round int) {
		w.traffic(round, op{70, w.insertOnce}, op{30, w.readOnce})
		time.Sleep(w.opt.round())
		w.stopTraffic("inserts")
	}
	insertFor(0)
	acked := len(w.ackedCopy())
	if acked == 0 {
		w.fatalf("no insert acknowledged before the stop")
	}

	// A graceful stop whose checkpoint committed leaves only the header.
	n.stop(true)
	if got := n.mem.Len("cube.wal"); got != int(wal.HeaderLen) {
		w.fatalf("the graceful stop left %d bytes in the log, want its %d-byte header", got, wal.HeaderLen)
	}
	garbage := []byte("this is not a write-ahead log")
	w.must(faultfs.WriteFileAtomic(n.mem, "cube.wal", garbage), "overwriting the log")
	w.must(n.start(), "restart over a garbage log header")
	if kept, err := n.mem.ReadFile("cube.wal.corrupt"); err != nil || !bytes.Equal(kept, garbage) {
		w.fatalf("quarantined log holds %q (%v), want the garbage it replaced", kept, err)
	}
	w.verifyRecovered(n, 0)

	insertFor(1)
	if len(w.ackedCopy()) == acked {
		w.fatalf("no insert acknowledged on the fresh log")
	}
	n.stop(false)
	w.must(n.start(), "restart after a power cut")
	w.verifyRecovered(n, 1)
}
