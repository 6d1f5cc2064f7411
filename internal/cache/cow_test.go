package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"c3/internal/mem"
)

// frames flattens the chunk table into the set-major frame array (set s
// at [s*ways, (s+1)*ways)), with unallocated chunks as free frames.
func frames(c *Cache) []Entry {
	out := make([]Entry, 0, c.Sets()*c.Ways())
	for _, ch := range c.s.chunks {
		if ch == nil {
			ch = make([]Entry, c.chunkLen())
		}
		out = append(out, ch...)
	}
	return out
}

// setOfFrame reports the set holding frame e, found by its position in
// the chunk table.
func setOfFrame(c *Cache, e *Entry) int {
	base := 0
	for _, ch := range c.s.chunks {
		for i := range ch {
			if &ch[i] == e {
				return (base + i) / c.ways
			}
		}
		base += c.chunkLen()
	}
	panic("frame not in cache")
}

// dumpAll renders every frame (valid or not) plus LRU order, so two
// caches compare equal only when fully identical.
func dumpAll(c *Cache) string {
	var b strings.Builder
	for i, e := range frames(c) {
		fmt.Fprintf(&b, "%d:%v:%v:%d:%v:%v:%d;", i, e.Addr, e.Valid, e.State,
			e.Data, e.DataValid, e.lru)
	}
	return b.String()
}

func addr(i int) mem.LineAddr { return mem.LineAddr(mem.Addr(i * mem.LineBytes).Line()) }

// TestCOWCloneIsolation drives random interleaved mutations on a parent
// and its clone and checks full isolation: after the clone, no mutation
// on one side is ever visible on the other.
func TestCOWCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		p := New(8*mem.LineBytes, 2) // 4 sets x 2 ways
		// Random warmup on the parent.
		for i := 0; i < 6; i++ {
			a := addr(rng.Intn(8))
			if p.Probe(a) == nil && p.HasSpace(a) {
				e := p.Install(a)
				e.State = rng.Intn(5)
				e.Data.SetWord(0, uint64(rng.Intn(100)))
				e.DataValid = true
			}
		}
		c := p.Clone()
		if !p.Shared() || !c.Shared() {
			t.Fatal("slab not shared right after Clone")
		}
		if dumpAll(p) != dumpAll(c) {
			t.Fatal("clone differs from parent before any mutation")
		}
		pRef, cRef := dumpAll(p), dumpAll(c)
		// Interleave random mutations; after each, the other side must
		// still render exactly as before it.
		for step := 0; step < 20; step++ {
			m, other, otherRef := p, c, cRef
			if rng.Intn(2) == 1 {
				m, other, otherRef = c, p, pRef
			}
			a := addr(rng.Intn(8))
			switch rng.Intn(4) {
			case 0:
				if e := m.Probe(a); e != nil {
					e.State = rng.Intn(5)
					e.Data.SetWord(1, uint64(step))
				}
			case 1:
				if m.Probe(a) == nil && m.HasSpace(a) {
					m.Install(a).State = rng.Intn(5)
				}
			case 2:
				if e := m.Probe(a); e != nil {
					m.Touch(e)
				}
			case 3:
				if e := m.Probe(a); e != nil {
					m.Remove(e)
				}
			}
			if got := dumpAll(other); got != otherRef {
				t.Fatalf("round %d step %d: mutation leaked to the other cache", round, step)
			}
			pRef, cRef = dumpAll(p), dumpAll(c)
		}
	}
}

// TestCOWReadOnlyAccessorsDoNotMaterialize: probing, iterating, and
// counting through the RO accessors must leave a fresh clone's slab
// shared; a single mutating access must unshare it.
func TestCOWReadOnlyAccessorsDoNotMaterialize(t *testing.T) {
	p := New(8*mem.LineBytes, 2)
	p.Install(addr(1)).State = 3
	p.Install(addr(2)).State = 1
	c := p.Clone()

	c.ProbeRO(addr(1))
	c.ForEachRO(func(*Entry) {})
	_ = c.Count()
	_ = c.HasSpace(addr(3))
	if !c.Shared() {
		t.Fatal("read-only access materialized the slab")
	}
	if e := c.Probe(addr(1)); e == nil {
		t.Fatal("line lost")
	}
	if c.Shared() || p.Shared() {
		t.Fatal("mutating access left the slab shared")
	}
}

// TestCOWReleaseRecycles: a released slab returns to the pool and the
// next New of the same geometry reuses it fully reset.
func TestCOWReleaseRecycles(t *testing.T) {
	p := New(8*mem.LineBytes, 2)
	p.Install(addr(1)).State = 3
	c := p.Clone()
	c.Release() // parent still holds a ref: slab must NOT recycle
	if e := p.Probe(addr(1)); e == nil || e.State != 3 {
		t.Fatal("release of a clone corrupted the parent")
	}
	p.Release()
	n := New(8*mem.LineBytes, 2) // may reuse the pooled slab
	if n.Count() != 0 {
		t.Fatal("pooled slab not reset by New")
	}
	for i, e := range frames(n) {
		if e != (Entry{}) {
			t.Fatalf("frame %d not reset: %+v", i, e)
		}
	}
}

// TestCOWCloneOfCloneChain: grandchildren stay isolated through a chain
// of clones with mutations at each level.
func TestCOWCloneOfCloneChain(t *testing.T) {
	a := New(8*mem.LineBytes, 2)
	a.Install(addr(1)).State = 1
	b := a.Clone()
	b.Probe(addr(1)).State = 2
	c := b.Clone()
	c.Probe(addr(1)).State = 3
	if a.Probe(addr(1)).State != 1 || b.Probe(addr(1)).State != 2 || c.Probe(addr(1)).State != 3 {
		t.Fatal("clone chain lost isolation")
	}
}
