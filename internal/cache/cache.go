// Package cache provides the set-associative storage arrays used by the
// private L1 caches and by the C3 controller's CXL cache (the LLC slice
// holding copies of remote-memory lines).
//
// The array stores tags, per-line protocol state (an opaque int owned by
// the controller), and real line data. Replacement is LRU. Multi-step
// evictions (e.g. the C3 cross-domain eviction of Fig. 7) are driven by
// the owning controller: Victim nominates a line, the controller runs its
// eviction transaction, then Remove + Install complete the replacement.
//
// # Storage layout and copy-on-write
//
// Frames are stored in a table of fixed-size chunks. A chunk is a
// set-contiguous run of frames (set s lives in chunk s/chunkSets at
// offset (s%chunkSets)*ways) of about chunkFrames frames; a cache
// smaller than one chunk is a single chunk. A zero Entry is a free
// frame, and a nil chunk reads as a run of free frames, so a chunk is
// allocated only by the first Install into it. Building a cache costs
// the chunk table, not the frames: a mostly untouched 4 MiB LLC costs a
// 12 KiB table, where one flat frame array was about 7 MB written on
// every build.
//
// The chunk table sits behind an atomic reference count and is shared
// copy-on-write between a cache and its Clones: Clone bumps the count and
// shares the table; the first mutating access on either side
// materializes a private table holding copies of the chunks that exist
// (nil chunks stay nil). Every accessor that hands out an *Entry the
// caller may write through (Lookup, Probe, Victim, VictimFunc, Install,
// ForEach) materializes first; the RO variants (ProbeRO, ForEachRO)
// read the shared table without copying and exist for
// hash/dump/invariant paths that must stay O(0) on freshly cloned
// snapshots. Pointers obtained from either kind of accessor are
// invalidated by the next cache call and must not be retained across
// calls.
//
// Retired tables are recycled through per-geometry sync.Pools (Release).
// Release clears only the chunks that were allocated and keeps them,
// detached and zeroed, as the table's spares; the next Install or
// materialize on a recycled table takes a spare before it allocates.
// Under the model checker's clone churn and the soak harness's
// build/release loop the steady state allocates almost nothing, and
// Release costs the touched chunks, not the whole array.
package cache

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"c3/internal/mem"
)

// chunkFrames is the target frame count of one storage chunk. The
// actual chunk holds the largest power-of-two number of whole sets that
// fits (at least one set, at most the whole cache).
const chunkFrames = 128

// Entry is one cache line frame. The zero Entry is a free frame.
type Entry struct {
	Addr mem.LineAddr
	// State is protocol-specific; controllers define their own encoding.
	State int
	Data  mem.Data
	lru   uint64

	Valid bool
	// DataValid distinguishes frames whose payload is current from frames
	// tracked for state only (e.g. C3 lines whose dirty data lives in an
	// L1 owner).
	DataValid bool
	// Poisoned marks a payload delivered with msg.Poisoned set (retry
	// exhaustion or a host crash that lost the only copy): the frame is
	// usable for coherence but its data is untrustworthy, and loads that
	// consume it surface the flag in their results.
	Poisoned bool
}

// slab is the refcounted chunk table shared copy-on-write between a
// cache and its clones. refs counts the Cache instances referencing it;
// writers may touch chunks only when refs == 1 (sole owner) — otherwise
// they copy first (materialize). refs is the only cross-goroutine state:
// concurrent Clones of one parent share it via atomic increments while
// each resulting model stays single-goroutine-owned.
type slab struct {
	refs   atomic.Int32
	chunks [][]Entry // nil: every frame of the chunk is free
	// spare holds zeroed chunks detached by Release, reused before any
	// new chunk is allocated.
	spare [][]Entry
	// one backs chunks for single-chunk caches (the checker's small
	// L1s and LLCs), saving the table allocation.
	one [1][]Entry
}

// chunk returns a zeroed chunk of n frames, from the spares if any.
func (s *slab) chunk(n int) []Entry {
	if k := len(s.spare); k > 0 {
		ch := s.spare[k-1]
		s.spare[k-1] = nil
		s.spare = s.spare[:k-1]
		return ch
	}
	return make([]Entry, n)
}

// reset clears every allocated chunk and detaches it into the spares,
// leaving a table of free frames.
func (s *slab) reset() {
	for i, ch := range s.chunks {
		if ch != nil {
			clear(ch)
			s.spare = append(s.spare, ch)
			s.chunks[i] = nil
		}
	}
}

// geometry keys the slab pools: slabs are interchangeable exactly when
// their chunk tables have the same shape.
type geometry struct{ chunks, chunkLen int }

var (
	poolsMu sync.Mutex
	pools   = map[geometry]*sync.Pool{}
)

// poolFor returns the slab pool of geometry g. New looks it up once per
// cache; clones inherit the pointer.
func poolFor(g geometry) *sync.Pool {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	p := pools[g]
	if p == nil {
		p = &sync.Pool{}
		pools[g] = p
	}
	return p
}

// Cache is a set-associative array. Create with New.
type Cache struct {
	s        *slab
	pool     *sync.Pool
	setMask  uint64
	ways     int
	setShift uint // log2 of the sets per chunk
	tick     uint64

	// Hits/Misses count Lookup outcomes, for MPKI accounting.
	Hits, Misses uint64
}

// New builds a cache of the given total size in bytes and associativity.
// Size must be a multiple of ways*mem.LineBytes and the set count a
// power of two. Construction allocates at most the chunk table (none
// when a released table of the same geometry is pooled); frames are
// allocated chunk by chunk on first Install.
func New(sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 {
		panic("cache: size and ways must be positive")
	}
	lines := sizeBytes / mem.LineBytes
	if lines%ways != 0 {
		panic("cache: size not divisible by ways")
	}
	nsets := lines / ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nsets))
	}
	chunkSets := 1
	if n := chunkFrames / ways; n > 1 {
		chunkSets = 1 << (bits.Len(uint(n)) - 1)
	}
	chunkSets = min(chunkSets, nsets)
	c := &Cache{
		pool:     poolFor(geometry{chunks: nsets / chunkSets, chunkLen: chunkSets * ways}),
		setMask:  uint64(nsets - 1),
		ways:     ways,
		setShift: uint(bits.TrailingZeros(uint(chunkSets))),
	}
	c.s = c.getSlab()
	return c
}

// chunkLen is the frame count of one chunk.
func (c *Cache) chunkLen() int { return c.ways << c.setShift }

// getSlab takes a table of free frames from the pool, or builds one.
func (c *Cache) getSlab() *slab {
	s, _ := c.pool.Get().(*slab)
	if s == nil {
		s = &slab{}
		if n := c.Sets() >> c.setShift; n == 1 {
			s.chunks = s.one[:]
		} else {
			s.chunks = make([][]Entry, n)
		}
	}
	s.refs.Store(1)
	return s
}

// putSlab clears a table no cache references and returns it to the pool.
func (c *Cache) putSlab(s *slab) {
	s.reset()
	c.pool.Put(s)
}

// Clone returns a copy of the array, including LRU ordering and hit/miss
// counters, for model-checker state snapshots. The chunk table is shared
// copy-on-write: the clone costs O(1) and the first mutating access on
// either side materializes a private copy.
func (c *Cache) Clone() *Cache {
	c.s.refs.Add(1)
	n := *c
	return &n
}

// Release drops the cache's reference to its chunk table, recycling it
// through the pool once no clone references it. The cache must not be
// used afterwards. Calling Release is optional (an unreleased table is
// simply garbage collected); the model checker and the soak harness
// release retired caches to keep their hot paths allocation-free.
func (c *Cache) Release() {
	if c.s == nil {
		return
	}
	if c.s.refs.Add(-1) == 0 {
		c.putSlab(c.s)
	}
	c.s = nil
}

// materialize gives the cache a private chunk table before a write. With
// a sole reference the table is already private and writes happen in
// place — the no-clone fast path (litmus/soak) pays one atomic load. A
// shared table is copied chunk by chunk, skipping nil chunks; the
// reference drop may race another clone's release, so the loser of the
// decrement recycles.
func (c *Cache) materialize() {
	s := c.s
	if s.refs.Load() == 1 {
		return
	}
	ns := c.getSlab()
	for i, ch := range s.chunks {
		if ch != nil {
			nc := ns.chunk(len(ch))
			copy(nc, ch)
			ns.chunks[i] = nc
		}
	}
	c.s = ns
	if s.refs.Add(-1) == 0 {
		c.putSlab(s)
	}
}

// Materialize forces a private copy of the chunk table now, as if a
// write occurred. The checker's deep-copy cross-check mode uses it to
// turn a COW clone into an eager one.
func (c *Cache) Materialize() { c.materialize() }

// Shared reports whether the chunk table is currently shared with a
// clone (ie. a write would copy). For tests.
func (c *Cache) Shared() bool { return c.s.refs.Load() > 1 }

// Sets reports the set count.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Ways reports the associativity.
func (c *Cache) Ways() int { return c.ways }

// setIndex derives the set of addr from the line index, with the line
// shift taken from mem so the two constants cannot drift.
func (c *Cache) setIndex(addr mem.LineAddr) int {
	return int((uint64(addr) >> mem.LineShift) & c.setMask)
}

// setOf returns addr's set, or nil when its chunk was never allocated
// (every way free).
func (c *Cache) setOf(addr mem.LineAddr) []Entry {
	si := c.setIndex(addr)
	ch := c.s.chunks[si>>c.setShift]
	if ch == nil {
		return nil
	}
	off := (si & (1<<c.setShift - 1)) * c.ways
	return ch[off : off+c.ways]
}

// Lookup returns the entry for addr, or nil on miss. It counts hit/miss
// statistics but does not touch LRU state; call Touch on use. The caller
// may write through the returned pointer.
func (c *Cache) Lookup(addr mem.LineAddr) *Entry {
	c.materialize()
	if e := c.probe(addr); e != nil {
		c.Hits++
		return e
	}
	c.Misses++
	return nil
}

// Probe is Lookup without statistics. The caller may write through the
// returned pointer; use ProbeRO on read-only paths that must not
// materialize a shared snapshot.
func (c *Cache) Probe(addr mem.LineAddr) *Entry {
	c.materialize()
	return c.probe(addr)
}

// ProbeRO is Probe for read-only inspection (hashing, dumps, invariant
// checks): it never copies a shared table. The caller must not write
// through the returned pointer.
func (c *Cache) ProbeRO(addr mem.LineAddr) *Entry {
	return c.probe(addr)
}

func (c *Cache) probe(addr mem.LineAddr) *Entry {
	set := c.setOf(addr)
	for i := range set {
		if set[i].Valid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Touch marks e most recently used. e must come from an accessor that
// materializes (Lookup/Probe/Install), so the write lands in a private
// table.
func (c *Cache) Touch(e *Entry) {
	c.tick++
	e.lru = c.tick
}

// HasSpace reports whether addr can be installed without eviction.
func (c *Cache) HasSpace(addr mem.LineAddr) bool {
	set := c.setOf(addr)
	if set == nil {
		return true
	}
	for i := range set {
		if !set[i].Valid {
			return true
		}
	}
	return false
}

// Victim returns the LRU valid entry of addr's set if the set is full,
// or nil if a free way exists. The caller evicts it (protocol flow),
// then calls Remove.
func (c *Cache) Victim(addr mem.LineAddr) *Entry {
	c.materialize()
	set := c.setOf(addr)
	var victim *Entry
	for i := range set {
		if !set[i].Valid {
			return nil
		}
		if victim == nil || set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	return victim
}

// VictimFunc is Victim restricted to entries ok approves (e.g. lines
// with no transaction in flight). It returns nil either when a free way
// exists or when no eligible victim exists; use HasSpace to distinguish.
func (c *Cache) VictimFunc(addr mem.LineAddr, ok func(*Entry) bool) *Entry {
	c.materialize()
	set := c.setOf(addr)
	var victim *Entry
	for i := range set {
		if !set[i].Valid {
			return nil
		}
	}
	for i := range set {
		if !ok(&set[i]) {
			continue
		}
		if victim == nil || set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	return victim
}

// Install claims a free frame for addr and returns it, allocating addr's
// chunk if this is its first frame. It panics if the set is full (the
// controller must have evicted first) or if addr is already present.
func (c *Cache) Install(addr mem.LineAddr) *Entry {
	c.materialize()
	si := c.setIndex(addr)
	ci := si >> c.setShift
	if c.s.chunks[ci] == nil {
		c.s.chunks[ci] = c.s.chunk(c.chunkLen())
	}
	set := c.setOf(addr)
	for i := range set {
		if set[i].Valid && set[i].Addr == addr {
			panic(fmt.Sprintf("cache: double install of %v", addr))
		}
	}
	for i := range set {
		if !set[i].Valid {
			e := &set[i]
			*e = Entry{Addr: addr, Valid: true}
			c.Touch(e)
			return e
		}
	}
	panic(fmt.Sprintf("cache: install of %v into full set", addr))
}

// Remove frees e's frame. e must come from an accessor that materializes.
// The chunk stays allocated until Release.
func (c *Cache) Remove(e *Entry) {
	*e = Entry{}
}

// ForEach visits every valid entry in set-major order (set 0's ways
// first); the caller may write through the pointer. The callback must
// not install or remove entries. Use ForEachRO on read-only paths.
func (c *Cache) ForEach(fn func(*Entry)) {
	c.materialize()
	c.forEach(fn)
}

// ForEachRO visits every valid entry, in ForEach's order, without
// materializing a shared table. The callback must not write through the
// pointer nor install or remove entries.
func (c *Cache) ForEachRO(fn func(*Entry)) {
	c.forEach(fn)
}

func (c *Cache) forEach(fn func(*Entry)) {
	for _, ch := range c.s.chunks {
		for i := range ch {
			if ch[i].Valid {
				fn(&ch[i])
			}
		}
	}
}

// Count returns the number of valid entries.
func (c *Cache) Count() int {
	n := 0
	c.ForEachRO(func(*Entry) { n++ })
	return n
}
