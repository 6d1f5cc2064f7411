package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"c3/internal/obs"
)

// fingerprint identifies the host and code a result came from, so numbers
// from different machines or trees are never compared silently.
type fingerprint struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	Go         string
	Revision   string
	Source     string
	Seed       int64
	InputSeed  int64
}

func hostFingerprint(seed int64) fingerprint {
	v := obs.Version()
	rev := v.Revision
	if rev == "" {
		rev = "none"
	} else if v.Dirty {
		rev += "+dirty"
	}
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   rev,
		Source:     sourceDigest("."),
		Seed:       seed,
		InputSeed:  inputSeed(seed),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and module file under root, so a
// checkout without VCS metadata is still identified by its contents.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify the tree
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	if len(files) == 0 {
		return "none"
	}
	return hex.EncodeToString(h.Sum(nil)[:6])
}

// usage is the process's CPU time and peak resident set so far.
type usage struct {
	cpu    time.Duration
	maxRSS int64 // KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSS: ru.Maxrss}
}

// rtSample is a snapshot of the Go runtime's allocator and GC counters.
type rtSample struct {
	allocObjs, allocBytes, gcCycles uint64
	gcCPU                           float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	var gc float64
	if s[3].Value.Kind() == metrics.KindFloat64 {
		gc = s[3].Value.Float64()
	}
	return rtSample{allocObjs: u(0), allocBytes: u(1), gcCycles: u(2), gcCPU: gc}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocObjs - b.allocObjs, a.allocBytes - b.allocBytes,
		a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.allocObjs + b.allocObjs, a.allocBytes + b.allocBytes,
		a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU}
}

// quantile is the linearly interpolated q-quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
