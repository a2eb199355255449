package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"rdfcube/internal/loadgen"
)

// Host-noise guard and sandbox labels: everything a reader needs to tell
// "the program got slower" from "the box was busy" or "this disk is slow".

// pinProcs fixes GOMAXPROCS at min(nproc, 4); the closed-loop client count
// equals it, so the load shape is the same on any box with ≥ 4 cores.
func pinProcs() int {
	p := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(p)
	return p
}

// hostGuard brackets a workload with two calibration sweeps.
type hostGuard struct {
	Before, After float64 // loadgen.Calibrate ns
}

func (h *hostGuard) begin() { h.Before = loadgen.Calibrate() }
func (h *hostGuard) end()   { h.After = loadgen.Calibrate() }

// noisy reports whether the two sweeps differ by more than 10 %.
func (h *hostGuard) noisy() bool {
	if h.Before == 0 || h.After == 0 {
		return false
	}
	return math.Abs(h.After-h.Before)/math.Min(h.Before, h.After) > 0.10
}

// memRef is the benchmark's yardstick for the shared host's memory system:
// a pointer chase through a 256 MiB array, each load's address the previous
// load's value, that walks the same path from the same slot on every
// reading — about 100 000 hops over 6 MiB of cache lines scattered through
// the array. What a hop costs depends on how much of that path the caches
// have kept since the last reading, that is on the share of the last-level
// cache the host's other tenants leave this one, and on the latency of the
// misses; nothing the program under test does is on the path. On a shared
// host both move by the minute and the workloads' times move with them
// (results/aa.md); a fixed ALU loop such as loadgen.Calibrate sees neither.
type memRef struct{ next []uint32 }

const (
	memRefSlots = 64 << 20 // uint32 slots: 256 MiB
	// memRefNominal is what a hop cost, in ns, on the quiet box this was
	// written on. Times are reported as at this cost; the constant only
	// sets their scale.
	memRefNominal = 200.0
)

// newMemRef lays one cycle through every slot: a full-period linear
// congruential step (Hull–Dobell: odd increment, multiplier ≡ 1 mod 4), so
// consecutive hops land far apart and no prefetcher follows them.
// A process lays it once: -workload all and -aa share it.
var newMemRef = sync.OnceValue(func() *memRef {
	m := &memRef{next: make([]uint32, memRefSlots)}
	for i := range m.next {
		m.next[i] = (uint32(i)*2654435761 + 12345) & (memRefSlots - 1)
	}
	return m
})

var memRefSink uint32 // keeps the chase from being optimised away

// read chases for d and returns the ns one hop took.
func (m *memRef) read(d time.Duration) float64 {
	const batch = 2000
	p, hops := uint32(7), 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for k := 0; k < batch; k++ {
			p = m.next[p]
		}
		hops += batch
	}
	took := time.Since(t0)
	memRefSink += p
	return float64(took.Nanoseconds()) / float64(hops)
}

// bytes is the yardstick's own footprint, which heap_live_mb leaves out.
func (m *memRef) bytes() uint64 { return uint64(len(m.next)) * 4 }

// fsType names the filesystem dir lives on (longest /proc/mounts prefix),
// or "unknown".
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, kind := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimRight(mp, "/")+"/")) && len(mp) > len(best) {
			best, kind = mp, fields[2]
		}
	}
	return kind
}

// fsyncProbe times raw 4 KiB write+fsync calls in dir, so insert latencies
// can be read as this sandbox's numbers, not a device's.
func fsyncProbe(dir string, n int) (summary, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return summary{}, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return summary{}, err
		}
		if err := f.Sync(); err != nil {
			return summary{}, err
		}
		ds = append(ds, time.Since(t0))
	}
	return summarize(ds), nil
}
