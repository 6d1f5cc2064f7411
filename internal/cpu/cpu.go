// Package cpu models the processor cores of each cluster: a simplified
// out-of-order engine with a memory-operation window and a store buffer,
// parameterized by memory consistency model (MCM).
//
// The paper simulates MCM heterogeneity with gem5's needsTSO flag rather
// than distinct ISAs, "to isolate performance differences attributable to
// the MCM". This package does the same isolation directly: an ordering
// matrix decides when an operation may issue or retire relative to older
// operations in the window, and the store buffer decides how stores drain:
//
//   - SC: every operation waits for all older operations.
//   - TSO (x86): load-load, load-store and store-store order are enforced;
//     store-load is relaxed through the FIFO store buffer, with
//     store-to-load forwarding. RMWs and fences drain the buffer.
//   - WMO (Arm-like weak): everything may reorder except same-address
//     program order, explicit fences, and acquire/release annotations;
//     the store buffer drains out of order with multiple misses in flight.
//
// Cores talk to their private L1 through the MemPort interface; the L1
// protocol controllers in internal/protocol implement it.
package cpu

import (
	"fmt"
	"math/rand/v2"

	"c3/internal/mem"
	"c3/internal/sim"
)

// MCM selects the memory consistency model a core enforces.
type MCM uint8

const (
	// WMO is the weakly ordered model (Arm-like); the paper's default.
	WMO MCM = iota
	// TSO is total store order (x86; gem5's needsTSO).
	TSO
	// SC is sequential consistency, for reference/ablation runs.
	SC
)

func (m MCM) String() string {
	switch m {
	case WMO:
		return "ARM"
	case TSO:
		return "TSO"
	case SC:
		return "SC"
	}
	return fmt.Sprintf("MCM(%d)", uint8(m))
}

// ParseMCM converts a config string ("arm"/"weak", "tso", "sc").
func ParseMCM(s string) (MCM, error) {
	switch s {
	case "arm", "ARM", "weak", "wmo", "WMO":
		return WMO, nil
	case "tso", "TSO", "x86":
		return TSO, nil
	case "sc", "SC":
		return SC, nil
	}
	return 0, fmt.Errorf("cpu: unknown MCM %q (want arm|tso|sc)", s)
}

// Kind is a memory operation type.
type Kind uint8

const (
	Load Kind = iota
	Store
	RMWAdd    // atomic fetch-and-add, returns old value
	RMWXchg   // atomic exchange, returns old value
	Fence     // full barrier
	Acquire   // standalone acquire barrier (RCC load-acquire side)
	Release   // standalone release barrier (RCC store-release side)
	Prefetch  // non-binding request for ownership (store-buffer RFO)
	PrefetchS // non-binding request for a shared copy (speculative load)
)

func (k Kind) String() string {
	switch k {
	case Load:
		return "LD"
	case Store:
		return "ST"
	case RMWAdd:
		return "RMW+"
	case RMWXchg:
		return "XCHG"
	case Fence:
		return "FENCE"
	case Acquire:
		return "ACQ"
	case Release:
		return "REL"
	case Prefetch:
		return "PF"
	case PrefetchS:
		return "PFS"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsMem reports whether k accesses memory (vs. a pure ordering op).
func (k Kind) IsMem() bool { return k <= RMWXchg }

// IsWrite reports whether k writes memory.
func (k Kind) IsWrite() bool { return k == Store || k == RMWAdd || k == RMWXchg }

// IsRMW reports whether k is an atomic read-modify-write.
func (k Kind) IsRMW() bool { return k == RMWAdd || k == RMWXchg }

// Instr is one instruction delivered by a Source.
type Instr struct {
	Kind Kind
	Addr mem.Addr
	Val  uint64 // store value / RMW operand
	Reg  int    // destination register for loads/RMWs (Source bookkeeping)
	Acq  bool   // acquire annotation on a load
	Rel  bool   // release annotation on a store
	// CtrlDep stops fetch until this instruction completes (a conditional
	// branch depends on it; used for spin loops and litmus dependency
	// variants).
	CtrlDep bool
}

// Source feeds a core its instruction stream. Next is called when the
// core has fetch room; Complete reports results (loads and RMWs) so the
// source can implement spins and dependent control flow.
type Source interface {
	Next() (Instr, bool)
	Complete(in Instr, loaded uint64)
}

// Request is a memory access the core sends to its L1.
type Request struct {
	Kind Kind
	Addr mem.Addr
	Val  uint64
	// Acq/Rel annotate acquire loads and release stores, which
	// self-invalidating (RCC) caches act on directly.
	Acq, Rel bool
	// Token identifies the in-flight operation to the issuing core. The
	// port echoes it in Response.Token, so one completion function per
	// core serves every access (no per-access closure), and a cache
	// snapshot (model-checker Clone) rebinds its pending completions to a
	// cloned core by swapping that one function. 0 means untracked
	// (non-binding prefetches, which complete inline).
	Token uint64
}

// Response reports a finished L1 access.
type Response struct {
	Val uint64
	// Missed is true when the access left the L1 (any coherence traffic).
	Missed bool
	// MissLatency is the L1 occupancy time of the access when Missed.
	MissLatency sim.Time
	// Poisoned marks a load whose data came from a poisoned line (link
	// retry exhaustion, or the only copy was lost with a crashed host).
	Poisoned bool
	// Token is the Request.Token of the access this response finishes.
	Token uint64
}

// MemPort is the core's view of its private cache. Implementations must
// invoke done exactly once, at a simulated time >= the call time, with
// Response.Token set to req.Token, and must preserve per-address request
// order from a single core.
type MemPort interface {
	Access(req Request, done func(Response))
	// NeedsSyncOps reports whether Fence/Acquire/Release must be sent to
	// the cache (RCC self-invalidate/flush) rather than handled purely by
	// core-side ordering.
	NeedsSyncOps() bool
}

// Config sizes the core.
type Config struct {
	MCM        MCM
	WindowSize int // max in-flight memory ops tracked by the core
	SBSize     int // store buffer entries
	// SBDrainWays is how many store-buffer entries may be draining to the
	// L1 at once. TSO forces 1 (FIFO); WMO/default uses this value.
	SBDrainWays int
	// IssueJitter/DrainJitter add a random delay of up to the given
	// number of cycles before an already-permitted load issue or store
	// drain. Ordering constraints are enforced before the delay, so
	// jitter only widens legal interleavings — the litmus runner uses it
	// to explore relaxed behaviours; performance runs leave it at 0.
	IssueJitter int
	DrainJitter int
	// Seed makes the jitter reproducible.
	Seed int64
	// SpecDepth bounds speculative load warming for in-order-binding
	// models (TSO/SC): at most this many loads may be in flight
	// (issued or warmed) at once. Models the limited speculation window
	// that makes TSO measurably slower than weak ordering on miss-heavy
	// code. 0 -> 4. WMO ignores it (loads issue freely).
	SpecDepth int
}

// DefaultConfig returns a reasonable 8-wide-OoO-like configuration
// (192-entry ROB scaled to memory ops).
func DefaultConfig(m MCM) Config {
	return Config{MCM: m, WindowSize: 24, SBSize: 12, SBDrainWays: 8, SpecDepth: 10}
}

// OpStats records completed-operation telemetry the stats package
// aggregates into the Fig. 11 breakdowns.
type OpStats struct {
	Kind     Kind
	Addr     mem.Addr
	Missed   bool
	Latency  sim.Time // miss latency when Missed
	Poisoned bool     // data consumed from a poisoned line
}

// Core is one simulated hardware thread.
type Core struct {
	ID  int
	cfg Config
	k   *sim.Kernel
	l1  MemPort
	src Source

	window  []*uop
	sb      []*sbEntry
	fetchOK bool // false while a CtrlDep op is outstanding
	srcDone bool
	halted  bool

	nextSeq uint64
	pumpEvt bool // an evaluate() is already scheduled

	// respFn is Completion, bound once per core (New, Clone), so an L1
	// access allocates no closure.
	respFn func(Response)
	// Retired uops and drained store-buffer entries, reused by fetch and
	// issue.
	freeUops []*uop
	freeSB   []*sbEntry

	// Observe, when non-nil, sees every completed memory operation.
	Observe func(OpStats)

	rng *rand.Rand

	// Retired counts completed instructions (for MPKI).
	Retired     uint64
	FinishedAt  sim.Time
	finished    bool
	onFinish    func()
	outstanding int // ops currently issued to L1 (loads/RMW/sync)
}

type uop struct {
	core     *Core
	in       Instr
	seq      uint64
	issued   bool
	done     bool
	val      uint64
	forwards bool // load satisfied by store forwarding
	warmed   bool // speculative prefetch issued while ordering blocks us
}

type sbEntry struct {
	addr     mem.Addr
	val      uint64
	rel      bool
	draining bool
	seq      uint64
}

// New creates a core. onFinish (may be nil) runs once when the source is
// exhausted and all operations have drained.
func New(id int, k *sim.Kernel, cfg Config, l1 MemPort, src Source, onFinish func()) *Core {
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 24
	}
	if cfg.SBSize <= 0 {
		cfg.SBSize = 12
	}
	if cfg.SBDrainWays <= 0 {
		cfg.SBDrainWays = 8
	}
	if cfg.MCM != WMO {
		// TSO and SC drain the store buffer in order, one at a time.
		cfg.SBDrainWays = 1
	}
	if cfg.SpecDepth <= 0 {
		cfg.SpecDepth = 10
	}
	c := &Core{ID: id, cfg: cfg, k: k, l1: l1, src: src, fetchOK: true, onFinish: onFinish}
	c.respFn = c.onResponse
	if cfg.IssueJitter > 0 || cfg.DrainJitter > 0 {
		c.rng = rand.New(rand.NewPCG(uint64(cfg.Seed)^0x7f, uint64(id+1)*0x9e3779b97f4a7c15))
	}
	return c
}

// Completion returns the function the core passes as done with every
// tracked L1 access: it resumes the access named by Response.Token. An
// L1 clone rebinds its pending completions to a cloned core with it.
func (c *Core) Completion() func(Response) { return c.respFn }

func (c *Core) jitter(n int) sim.Time {
	if n <= 0 || c.rng == nil {
		return 0
	}
	return sim.Time(c.rng.IntN(n))
}

// Start begins execution.
func (c *Core) Start() { c.pump() }

// Finished reports whether the core has drained entirely.
func (c *Core) Finished() bool { return c.finished }

func (c *Core) pump() {
	if c.pumpEvt || c.halted {
		return
	}
	c.pumpEvt = true
	c.k.ScheduleArg(c.k.Now()+1, pumpCore, c)
}

// pumpCore is the pump event: a plain function over its *Core argument,
// so scheduling it allocates nothing.
func pumpCore(a any) {
	c := a.(*Core)
	c.pumpEvt = false
	c.evaluate()
}

// evaluate advances fetch, issue, and store-buffer drain.
func (c *Core) evaluate() {
	c.fetch()
	c.issue()
	c.drainSB()
	c.checkFinished()
}

func (c *Core) fetch() {
	for !c.srcDone && c.fetchOK && len(c.window) < c.cfg.WindowSize {
		in, ok := c.src.Next()
		if !ok {
			c.srcDone = true
			break
		}
		var u *uop
		if n := len(c.freeUops); n > 0 {
			u = c.freeUops[n-1]
			c.freeUops = c.freeUops[:n-1]
		} else {
			u = new(uop)
		}
		*u = uop{core: c, in: in, seq: c.nextSeq}
		c.nextSeq++
		c.window = append(c.window, u)
		if in.CtrlDep {
			c.fetchOK = false
		}
	}
}

// olderBlocks reports whether older (incomplete) op o must complete
// before younger op y may proceed, per the core's MCM.
func (c *Core) olderBlocks(o, y *uop) bool {
	if o.done {
		return false
	}
	ok, yk := o.in.Kind, y.in.Kind
	// Ordering ops block everything younger, on every model. RMWs are
	// full fences (x86 semantics; lock primitives on Arm).
	if ok == Fence || ok == Acquire || ok == Release || ok.IsRMW() {
		return true
	}
	// Same-address program order is sacred on all models (coherence).
	if ok.IsMem() && yk.IsMem() && o.in.Addr.Line() == y.in.Addr.Line() {
		return true
	}
	// An acquire load blocks all younger operations.
	if o.in.Acq && ok == Load {
		return true
	}
	switch c.cfg.MCM {
	case SC:
		return true
	case TSO:
		// Loads and RMWs enforce order against younger loads and stores
		// (LL, LS). Stores do not block younger loads (SL relaxed via the
		// store buffer); store-store order is preserved by FIFO drain.
		if ok == Load || ok.IsRMW() {
			return true
		}
		return false
	default: // WMO
		return false
	}
}

func (c *Core) ready(u *uop) bool {
	for _, o := range c.window {
		if o.seq >= u.seq {
			break
		}
		if c.olderBlocks(o, u) {
			return false
		}
	}
	return true
}

// forwardFrom returns the youngest older store (in window or SB) to the
// same address, for store-to-load forwarding.
func (c *Core) forwardFrom(u *uop) (uint64, bool) {
	var val uint64
	found := false
	for _, o := range c.window {
		if o.seq >= u.seq {
			break
		}
		if o.in.Kind == Store && o.in.Addr == u.in.Addr {
			val, found = o.in.Val, true
		}
	}
	if found {
		return val, true
	}
	for _, s := range c.sb {
		if s.addr == u.in.Addr {
			val, found = s.val, true
		}
	}
	return val, found
}

// sbHasLine reports whether the store buffer holds an entry for the line
// of addr (loads to a line with a pending non-same-address store still
// forward conservatively at line granularity? No: forwarding is exact-
// address; but same-line SB entries do not block loads).
func (c *Core) olderUndrainedRelease() bool {
	for _, s := range c.sb {
		if s.rel {
			return true
		}
	}
	return false
}

func (c *Core) issue() {
	// Speculation budget for in-order-binding loads (TSO/SC).
	specLeft := c.cfg.SpecDepth
	for _, u := range c.window {
		if u.in.Kind == Load && !u.done && (u.issued || u.warmed) {
			specLeft--
		}
	}
	for _, u := range c.window {
		if u.issued || u.done {
			continue
		}
		if !c.ready(u) {
			// TSO/SC loads wait for older loads to complete (in-order
			// binding), but hardware still brings the line in
			// speculatively; warm the cache so the binding access hits.
			// Non-binding, so legal across any ordering constraint.
			if u.in.Kind == Load && !u.warmed && specLeft > 0 && c.cfg.MCM != WMO && !c.l1.NeedsSyncOps() {
				u.warmed = true
				specLeft--
				c.l1.Access(Request{Kind: PrefetchS, Addr: u.in.Addr}, func(Response) {})
			}
			continue
		}
		switch u.in.Kind {
		case Load:
			// SC: a load may not bypass buffered stores; wait for drain
			// unless the value forwards.
			if c.cfg.MCM == SC && len(c.sb) > 0 {
				if v, fwd := c.forwardFrom(u); fwd {
					u.issued = true
					u.forwards = true
					c.completeLocal(u, v)
				}
				continue
			}
			if v, ok := c.forwardFrom(u); ok {
				u.issued = true
				u.forwards = true
				c.completeLocal(u, v)
				continue
			}
			u.issued = true
			c.issueToL1(u, Request{Kind: Load, Addr: u.in.Addr, Acq: u.in.Acq})
		case Store:
			// A store retires into the store buffer once ordering allows;
			// it completes from the window's perspective immediately.
			if len(c.sb) >= c.cfg.SBSize {
				continue // SB full; retry on next pump
			}
			// A release store may not enter the SB ahead of undrained
			// older (release-ordered) state: modelled by requiring the
			// whole SB to drain first, plus a sync op for RCC caches.
			if u.in.Rel && (len(c.sb) > 0 || c.anyOlderIncomplete(u)) {
				continue
			}
			u.issued = true
			var e *sbEntry
			if n := len(c.freeSB); n > 0 {
				e = c.freeSB[n-1]
				c.freeSB = c.freeSB[:n-1]
			} else {
				e = new(sbEntry)
			}
			*e = sbEntry{addr: u.in.Addr, val: u.in.Val, rel: u.in.Rel, seq: u.seq}
			c.sb = append(c.sb, e)
			if c.cfg.MCM != WMO && !c.l1.NeedsSyncOps() {
				// FIFO-draining models issue a non-binding ownership
				// prefetch so store misses overlap (hardware RFO
				// prefetching); the drain itself stays in order.
				c.l1.Access(Request{Kind: Prefetch, Addr: u.in.Addr}, func(Response) {})
			}
			c.completeLocal(u, 0)
		case RMWAdd, RMWXchg:
			// Atomics are full fences: all older ops complete and the
			// store buffer drains before they issue.
			if len(c.sb) > 0 || c.anyOlderIncomplete(u) {
				continue
			}
			u.issued = true
			c.issueToL1(u, Request{Kind: u.in.Kind, Addr: u.in.Addr, Val: u.in.Val})
		case Fence, Acquire, Release:
			// Ordering ops wait for every older op and an empty SB.
			if c.anyOlderIncomplete(u) || len(c.sb) > 0 {
				continue
			}
			u.issued = true
			if c.l1.NeedsSyncOps() {
				c.issueToL1(u, Request{Kind: u.in.Kind})
			} else {
				c.completeLocal(u, 0)
			}
		}
	}
}

func (c *Core) anyOlderIncomplete(u *uop) bool {
	for _, o := range c.window {
		if o.seq >= u.seq {
			break
		}
		if !o.done {
			return true
		}
	}
	return false
}

func (c *Core) issueToL1(u *uop, req Request) {
	c.outstanding++
	if j := c.jitter(c.cfg.IssueJitter); j > 0 && req.Kind.IsMem() {
		c.k.After(j, func() { c.accessL1(u, req) })
		return
	}
	c.accessL1(u, req)
}

// Tokens encode which structure an in-flight L1 access resumes into:
// odd tokens resume a window uop, even tokens a draining store-buffer
// entry. The two share a seq namespace (a store's uop and its SB entry
// carry the same seq), so the low bit keeps them unambiguous.
func windowToken(seq uint64) uint64 { return seq<<1 + 1 }
func drainToken(seq uint64) uint64  { return seq<<1 + 2 }

func (c *Core) accessL1(u *uop, req Request) {
	req.Token = windowToken(u.seq)
	c.l1.Access(req, c.respFn)
}

func (c *Core) onResponse(r Response) { c.Resume(r.Token, r) }

// Resume finishes the in-flight operation identified by tok with the L1's
// response. It is the single completion path for every tracked access —
// the L1 calls the core's Completion function, which forwards the echoed
// token here — which is what lets a cloned cache rebind its pending
// completions to a cloned core: the token is data, not a closure. A
// token that matches nothing is a protocol bug.
func (c *Core) Resume(tok uint64, r Response) {
	if tok == 0 {
		return // untracked (prefetch)
	}
	if c.halted {
		// A killed core's window and store buffer are gone; completions
		// from accesses still in flight at the kill are dropped rather
		// than treated as protocol bugs.
		return
	}
	if tok&1 == 1 { // window op (load/RMW/sync)
		seq := tok >> 1
		for _, u := range c.window {
			if u.seq == seq {
				c.outstanding--
				if c.Observe != nil {
					c.Observe(OpStats{Kind: u.in.Kind, Addr: u.in.Addr, Missed: r.Missed, Latency: r.MissLatency, Poisoned: r.Poisoned})
				}
				c.complete(u, r.Val)
				return
			}
		}
		panic(fmt.Sprintf("cpu: core %d resume token %d: no window op with seq %d", c.ID, tok, seq))
	}
	seq := (tok - 2) >> 1
	for _, s := range c.sb {
		if s.seq == seq {
			c.outstanding--
			if c.Observe != nil {
				c.Observe(OpStats{Kind: Store, Addr: s.addr, Missed: r.Missed, Latency: r.MissLatency})
			}
			c.removeSB(s)
			c.pump()
			return
		}
	}
	panic(fmt.Sprintf("cpu: core %d resume token %d: no draining store with seq %d", c.ID, tok, seq))
}

// completeLocal finishes ops that never left the core (SB retire,
// forwarded loads, local fences) after a 1-cycle pipeline delay. The
// value rides in u.val until the event fires.
func (c *Core) completeLocal(u *uop, val uint64) {
	u.val = val
	c.k.ScheduleArg(c.k.Now()+1, completeLocalUop, u)
}

func completeLocalUop(a any) {
	u := a.(*uop)
	c := u.core
	// Stores are observed when they drain from the SB, not here, to
	// avoid double counting; forwarded loads count as hits.
	if c.Observe != nil && u.in.Kind == Load {
		c.Observe(OpStats{Kind: Load, Addr: u.in.Addr})
	}
	c.complete(u, u.val)
}

func (c *Core) complete(u *uop, val uint64) {
	u.done = true
	u.val = val
	c.Retired++
	c.src.Complete(u.in, val)
	if u.in.CtrlDep {
		c.fetchOK = true
	}
	c.retire()
	c.pump()
}

// retire removes completed ops from the head of the window, recycling
// their records for fetch.
func (c *Core) retire() {
	i := 0
	for i < len(c.window) && c.window[i].done {
		i++
	}
	if i > 0 {
		c.freeUops = append(c.freeUops, c.window[:i]...)
		c.window = append(c.window[:0], c.window[i:]...)
	}
}

func (c *Core) drainSB() {
	draining := 0
	for _, s := range c.sb {
		if s.draining {
			draining++
		}
	}
	for _, s := range c.sb {
		if draining >= c.cfg.SBDrainWays {
			break
		}
		if s.draining {
			if c.cfg.MCM != WMO {
				break // FIFO: only the head may drain
			}
			continue
		}
		// WMO may drain any entry; but same-address entries must drain in
		// order, so skip if an older undrained/draining same-address entry
		// exists earlier in the buffer.
		if c.cfg.MCM == WMO && c.olderSameLine(s) {
			continue
		}
		s.draining = true
		draining++
		c.outstanding++
		if j := c.jitter(c.cfg.DrainJitter); j > 0 {
			c.k.After(j, func() { c.drain(s) })
		} else {
			c.drain(s)
		}
		if c.cfg.MCM != WMO {
			break
		}
	}
}

// drain sends store-buffer entry s to the L1.
func (c *Core) drain(s *sbEntry) {
	c.l1.Access(Request{Kind: Store, Addr: s.addr, Val: s.val, Rel: s.rel, Token: drainToken(s.seq)}, c.respFn)
}

func (c *Core) olderSameLine(s *sbEntry) bool {
	for _, o := range c.sb {
		if o == s {
			return false
		}
		if o.addr.Line() == s.addr.Line() {
			return true
		}
	}
	return false
}

func (c *Core) removeSB(e *sbEntry) {
	for i, s := range c.sb {
		if s == e {
			c.sb = append(c.sb[:i], c.sb[i+1:]...)
			c.freeSB = append(c.freeSB, e)
			return
		}
	}
}

// Clone returns a deep copy of the core for model-checker snapshots,
// attached to kernel k and instruction source src (the caller clones the
// source). The L1 port is left nil — call BindL1 once the matching cache
// clone exists; the cache resumes this core's in-flight accesses through
// the clone's Completion function, by token (see Resume). Cores with jitter enabled cannot be cloned (the
// checker explores orderings exhaustively and never uses jitter), nor
// can cores with a pending pump event (non-quiescent).
func (c *Core) Clone(k *sim.Kernel, src Source) *Core {
	if c.rng != nil {
		panic("cpu: Clone of core with timing jitter enabled")
	}
	if c.pumpEvt {
		panic("cpu: Clone of core with a pending pump event")
	}
	if c.onFinish != nil {
		panic("cpu: Clone of core with an onFinish callback")
	}
	n := &Core{
		ID: c.ID, cfg: c.cfg, k: k, src: src,
		fetchOK: c.fetchOK, srcDone: c.srcDone, halted: c.halted,
		nextSeq: c.nextSeq, Observe: c.Observe,
		Retired: c.Retired, FinishedAt: c.FinishedAt, finished: c.finished,
		outstanding: c.outstanding,
	}
	n.respFn = n.onResponse
	// Window and store-buffer records are value slabs: one allocation
	// each instead of one per uop/entry. Identity comparisons elsewhere
	// (e.g. removeSB) work on the slab pointers.
	if len(c.window) > 0 {
		us := make([]uop, len(c.window))
		n.window = make([]*uop, len(c.window))
		for i, u := range c.window {
			us[i] = *u
			us[i].core = n
			n.window[i] = &us[i]
		}
	}
	if len(c.sb) > 0 {
		ss := make([]sbEntry, len(c.sb))
		n.sb = make([]*sbEntry, len(c.sb))
		for i, e := range c.sb {
			ss[i] = *e
			n.sb[i] = &ss[i]
		}
	}
	return n
}

// BindL1 attaches the core's memory port; used when cloning, where the
// core and its cache must be created before they can reference each
// other.
func (c *Core) BindL1(l1 MemPort) { c.l1 = l1 }

// Kill halts the core immediately, modelling a host crash: all in-flight
// and unfetched work is abandoned (never observed, never retired). The
// core counts as finished so run loops waiting on completion unblock;
// L1 completions still in flight are dropped by Resume's halted guard.
func (c *Core) Kill() {
	if c.halted {
		return
	}
	c.halted = true
	c.srcDone = true
	c.fetchOK = false
	c.window = nil
	c.sb = nil
	c.outstanding = 0
	if !c.finished {
		c.finished = true
		c.FinishedAt = c.k.Now()
		if c.onFinish != nil {
			c.onFinish()
		}
	}
}

// Halted reports whether the core was killed by a crash.
func (c *Core) Halted() bool { return c.halted }

func (c *Core) checkFinished() {
	if c.finished || !c.srcDone {
		return
	}
	if len(c.window) == 0 && len(c.sb) == 0 && c.outstanding == 0 {
		c.finished = true
		c.FinishedAt = c.k.Now()
		if c.onFinish != nil {
			c.onFinish()
		}
	}
}
