package cache

import (
	"math/rand"
	"runtime"
	"testing"

	"c3/internal/mem"
)

// llcBytes/llcWays is the C3 LLC geometry of Table III.
const llcBytes, llcWays = 4 << 20, 8

// TestNewIsLazy: building a 4 MiB cache allocates the chunk table and
// nothing proportional to the frame count.
func TestNewIsLazy(t *testing.T) {
	cs := make([]*Cache, 0, 32)
	allocs := testing.AllocsPerRun(20, func() { cs = append(cs, New(llcBytes, llcWays)) })
	if allocs > 3 {
		t.Errorf("New allocates %.0f objects, want <= 3 (cache, slab, chunk table)", allocs)
	}

	const n = 16
	cs = cs[:0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		cs = append(cs, New(llcBytes, llcWays))
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / n
	tableBytes := uint64(len(cs[0].s.chunks)) * 24 // one slice header per chunk
	if perBuild > 2*tableBytes+1024 {
		t.Errorf("New allocates %d bytes, want O(chunk table) = ~%d", perBuild, tableBytes)
	}
	for _, c := range cs {
		for i, ch := range c.s.chunks {
			if ch != nil {
				t.Fatalf("fresh cache has chunk %d allocated", i)
			}
		}
		if c.Count() != 0 || !c.HasSpace(line(12345)) || c.Probe(line(7)) != nil {
			t.Fatal("fresh cache not empty")
		}
	}
	runtime.KeepAlive(cs)
}

// multiChunk is a cache spanning several chunks: 128 sets x 8 ways,
// 16 sets per chunk, 8 chunks.
func multiChunk() *Cache { return New(64<<10, 8) }

// TestCOWIsolationAcrossChunks: writes on either side of a clone, spread
// over several chunks (some allocated before the clone, some after),
// never show on the other side.
func TestCOWIsolationAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := multiChunk()
	if len(p.s.chunks) < 4 {
		t.Fatalf("geometry has %d chunks, want several", len(p.s.chunks))
	}
	sets := p.Sets()
	// Warm the first half of the sets only, so later installs allocate
	// fresh chunks on one side.
	for i := 0; i < sets/2; i += 3 {
		e := p.Install(addr(i))
		e.State = 1
		e.Data.SetWord(0, uint64(i))
	}
	c := p.Clone()
	pRef, cRef := dumpAll(p), dumpAll(c)
	for step := 0; step < 200; step++ {
		m, other, otherRef := p, c, cRef
		if step%2 == 1 {
			m, other, otherRef = c, p, pRef
		}
		a := addr(rng.Intn(4 * sets))
		if e := m.Probe(a); e != nil {
			if rng.Intn(3) == 0 {
				m.Remove(e)
			} else {
				e.State = rng.Intn(5)
				e.Data.SetWord(1, uint64(step))
				m.Touch(e)
			}
		} else if m.HasSpace(a) {
			m.Install(a).State = 2
		}
		if got := dumpAll(other); got != otherRef {
			t.Fatalf("step %d: write leaked across the clone", step)
		}
		pRef, cRef = dumpAll(p), dumpAll(c)
	}
	if pRef == cRef {
		t.Fatal("the two sides never diverged")
	}
}

// TestReleaseResetsPooledSlab: Release clears the touched chunks into
// the table's spares, and a New served from the pool sees only free
// frames.
func TestReleaseResetsPooledSlab(t *testing.T) {
	p := multiChunk()
	for i := 0; i < 4*p.Sets(); i += 5 {
		if p.HasSpace(addr(i)) {
			e := p.Install(addr(i))
			e.State = 3
			e.Data.SetWord(2, 9)
			e.DataValid, e.Poisoned = true, true
		}
	}
	s := p.s
	touched := 0
	for _, ch := range s.chunks {
		if ch != nil {
			touched++
		}
	}
	p.Release()
	for i, ch := range s.chunks {
		if ch != nil {
			t.Fatalf("chunk %d still attached after Release", i)
		}
	}
	if len(s.spare) != touched {
		t.Fatalf("%d spares, want the %d touched chunks", len(s.spare), touched)
	}
	for _, ch := range s.spare {
		for i := range ch {
			if ch[i] != (Entry{}) {
				t.Fatalf("spare frame not cleared: %+v", ch[i])
			}
		}
	}

	for round := 0; round < 3; round++ {
		n := multiChunk()
		for i, e := range frames(n) {
			if e != (Entry{}) {
				t.Fatalf("round %d: frame %d of a pooled build not free: %+v", round, i, e)
			}
		}
		if n.Count() != 0 {
			t.Fatalf("round %d: pooled build holds %d lines", round, n.Count())
		}
		for i := 0; i < 2*n.Sets(); i += 7 {
			n.Install(addr(i)).State = round + 1
		}
		n.Release()
	}
}

// flatRef is the frame layout the chunk table replaced: one flat array,
// set s at [s*ways, (s+1)*ways), first free way on install.
type flatRef struct {
	ways, sets int
	f          []mem.LineAddr // 0 = free
}

func (r *flatRef) set(a mem.LineAddr) []mem.LineAddr {
	s := int((uint64(a) >> mem.LineShift) % uint64(r.sets))
	return r.f[s*r.ways : (s+1)*r.ways]
}

// TestForEachSetMajorOrder: ForEach and ForEachRO visit frames in the
// flat set-major order, so dumps and hashes are unchanged by the chunked
// layout.
func TestForEachSetMajorOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, geo := range [][2]int{{64 << 10, 8}, {8 * mem.LineBytes, 2}, {32 << 10, 4}, {4096, 1}} {
		c := New(geo[0], geo[1])
		ref := &flatRef{ways: c.Ways(), sets: c.Sets(), f: make([]mem.LineAddr, c.Sets()*c.Ways())}
		for step := 0; step < 3000; step++ {
			a := addr(1 + rng.Intn(6*c.Sets()))
			if e := c.Probe(a); e != nil {
				if rng.Intn(2) == 0 {
					c.Remove(e)
					set := ref.set(a)
					for i := range set {
						if set[i] == a {
							set[i] = 0
						}
					}
				}
				continue
			}
			if !c.HasSpace(a) {
				continue
			}
			c.Install(a)
			set := ref.set(a)
			for i := range set {
				if set[i] == 0 {
					set[i] = a
					break
				}
			}
		}
		var want []mem.LineAddr
		for _, a := range ref.f {
			if a != 0 {
				want = append(want, a)
			}
		}
		for _, visit := range []func(func(*Entry)){c.ForEach, c.ForEachRO} {
			var got []mem.LineAddr
			visit(func(e *Entry) { got = append(got, e.Addr) })
			if len(got) != len(want) {
				t.Fatalf("%v: visited %d frames, want %d", geo, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v: visit %d is %v, want %v", geo, i, got[i], want[i])
				}
			}
		}
	}
}
