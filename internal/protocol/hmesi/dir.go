// Package hmesi implements the hierarchical MESI global directory used
// as the paper's MESI-MESI-MESI baseline: a textbook 3-hop directory
// where data travels peer-to-peer between C3 instances and ownership
// transfers are pipelined (the directory updates its owner pointer when
// it forwards, without waiting for any response) — the property that
// makes the baseline faster than CXL under write contention (Sec. VI-C).
//
// The directory blocks a line only while reading device memory or while
// awaiting the data copy-back that accompanies an owner downgrade
// (GFwdGetS -> GCopyBack); GetM chains pipeline freely.
package hmesi

import (
	"fmt"
	"sort"

	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/sim"
	"c3/internal/trace"
)

const (
	hI = iota
	hS
	hE
	hM
)

func hname(s int) string { return [...]string{"I", "S", "E", "M"}[s] }

type hline struct {
	state   int
	owner   msg.NodeID
	sharers msg.NodeSet
	// busy is set while reading memory or awaiting a GCopyBack.
	busy bool
	// copyBackFrom/pendingReq track the in-flight owner downgrade.
	copyBackFrom msg.NodeID
	pendingReq   msg.NodeID
	// lastFwdFrom remembers the source of the most recent pipelined
	// GFwdGetM hand-off. The directory normally never learns whether the
	// peer-to-peer GDataM arrived; this breadcrumb is what lets host
	// isolation synthesize a poisoned grant when the hand-off source
	// crashes with the transfer possibly in flight. Cleared when the
	// directory sees proof the target received data (its GPutM or
	// GCopyBack).
	lastFwdFrom msg.NodeID
	queue       []*msg.Msg
}

// Stats aggregates directory telemetry.
type Stats struct {
	Reads, Writes, Fwds, Invs, Stalls uint64
}

// Dir is the global MESI directory co-located with device memory.
type Dir struct {
	id   msg.NodeID
	k    *sim.Kernel
	dram *mem.DRAM
	// Lat is the controller occupancy added to outgoing messages.
	Lat sim.Time
	out network.Outbox

	lines map[mem.LineAddr]*hline

	// dead is the set of isolated (crashed) hosts; poisoned marks lines
	// whose only current copy died with one (sticky — see the DCOH's
	// equivalent).
	dead     msg.NodeSet
	poisoned map[mem.LineAddr]bool

	// Tracer, when non-nil, observes directory state transitions.
	Tracer *trace.Tracer

	Stats Stats
}

// traceState emits a directory transition. Callers guard on d.Tracer.
func (d *Dir) traceState(a mem.LineAddr, old int, note string) {
	l := d.lines[a]
	new := hI
	if l != nil {
		new = l.state
	}
	d.Tracer.State(d.k.Now(), d.id, a, hname(old), hname(new), note)
}

// New builds the directory with its backing memory.
func New(id msg.NodeID, k *sim.Kernel, net network.Fabric, dram *mem.DRAM) *Dir {
	return &Dir{id: id, k: k, dram: dram, Lat: 4, out: network.NewOutbox(k, net),
		lines:    make(map[mem.LineAddr]*hline),
		poisoned: make(map[mem.LineAddr]bool)}
}

// ID returns the directory's network id.
func (d *Dir) ID() msg.NodeID { return d.id }

// DRAM exposes the backing memory.
func (d *Dir) DRAM() *mem.DRAM { return d.dram }

func (d *Dir) line(a mem.LineAddr) *hline {
	l := d.lines[a]
	if l == nil {
		l = &hline{owner: msg.None, copyBackFrom: msg.None, pendingReq: msg.None,
			lastFwdFrom: msg.None}
		d.lines[a] = l
	}
	return l
}

func (d *Dir) send(m *msg.Msg) {
	m.Src = d.id
	d.out.Send(m, d.Lat)
}

// Recv implements network.Port.
func (d *Dir) Recv(m *msg.Msg) {
	if d.dead.Has(m.Src) {
		// Stale message from an isolated host; its state was reclaimed.
		return
	}
	switch m.Type {
	case msg.GGetS:
		d.getS(m)
	case msg.GGetM:
		d.getM(m)
	case msg.GPutM:
		d.putM(m)
	case msg.GPutS:
		d.putS(m)
	case msg.GCopyBack:
		d.copyBack(m)
	default:
		panic(fmt.Sprintf("hmesi: dir got unexpected %v", m))
	}
}

func (d *Dir) getS(m *msg.Msg) {
	l := d.line(m.Addr)
	if l.busy {
		d.Stats.Stalls++
		l.queue = append(l.queue, m)
		return
	}
	d.Stats.Reads++
	switch l.state {
	case hI:
		l.busy = true
		d.dram.Read(m.Addr, func(data mem.Data) {
			l.busy = false
			if d.dead.Has(m.Src) {
				// The requestor crashed while memory was read: do not
				// install it as owner.
				d.drain(m.Addr, l)
				return
			}
			// Sole reader: grant exclusive-clean, MESI style.
			l.state = hE
			l.owner = m.Src
			if d.Tracer != nil {
				d.traceState(m.Addr, hI, "GGetS")
			}
			d.send(&msg.Msg{Type: msg.GDataE, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp,
				Data: msg.WithData(data), Poisoned: d.poisoned[m.Addr]})
			d.drain(m.Addr, l)
		})
	case hS:
		l.busy = true
		d.dram.Read(m.Addr, func(data mem.Data) {
			l.busy = false
			if d.dead.Has(m.Src) {
				d.drain(m.Addr, l)
				return
			}
			l.sharers.Add(m.Src)
			d.send(&msg.Msg{Type: msg.GData, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp,
				Data: msg.WithData(data), Poisoned: d.poisoned[m.Addr]})
			d.drain(m.Addr, l)
		})
	case hE, hM:
		if l.owner == m.Src {
			panic(fmt.Sprintf("hmesi: owner %d re-requests S for %v", m.Src, m.Addr))
		}
		// 3-hop: owner sends GDataS to the requestor and a GCopyBack
		// here; the line blocks until the copy-back lands.
		d.Stats.Fwds++
		l.busy = true
		l.copyBackFrom = l.owner
		l.pendingReq = m.Src
		d.send(&msg.Msg{Type: msg.GFwdGetS, Addr: m.Addr, Dst: l.owner, Req: m.Src,
			VNet: msg.VSnp})
	}
}

func (d *Dir) getM(m *msg.Msg) {
	l := d.line(m.Addr)
	if l.busy {
		d.Stats.Stalls++
		l.queue = append(l.queue, m)
		return
	}
	d.Stats.Reads++
	switch l.state {
	case hI:
		l.busy = true
		d.dram.Read(m.Addr, func(data mem.Data) {
			l.busy = false
			if d.dead.Has(m.Src) {
				d.drain(m.Addr, l)
				return
			}
			l.state = hM
			l.owner = m.Src
			if d.Tracer != nil {
				d.traceState(m.Addr, hI, "GGetM")
			}
			d.send(&msg.Msg{Type: msg.GDataM, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp,
				Data: msg.WithData(data), Poisoned: d.poisoned[m.Addr]})
			d.drain(m.Addr, l)
		})
	case hS:
		// Invalidate other sharers (ascending id order, deterministic);
		// they ack to the requestor.
		n := 0
		l.sharers.ForEach(func(h msg.NodeID) {
			if h == m.Src {
				return
			}
			n++
			d.Stats.Invs++
			d.send(&msg.Msg{Type: msg.GInv, Addr: m.Addr, Dst: h, Req: m.Src, VNet: msg.VSnp})
		})
		wasSharer := l.sharers.Has(m.Src)
		l.state = hM
		l.owner = m.Src
		l.sharers = 0
		if d.Tracer != nil {
			d.traceState(m.Addr, hS, "GGetM")
		}
		if wasSharer {
			// Requestor holds valid data: grant permission only. The
			// directory pipelines: it is immediately ready for the next
			// request.
			d.send(&msg.Msg{Type: msg.GDataM, Addr: m.Addr, Dst: m.Src, Acks: n, VNet: msg.VRsp})
			return
		}
		acks := n
		l.busy = true
		d.dram.Read(m.Addr, func(data mem.Data) {
			l.busy = false
			d.send(&msg.Msg{Type: msg.GDataM, Addr: m.Addr, Dst: m.Src, Acks: acks,
				VNet: msg.VRsp, Data: msg.WithData(data), Poisoned: d.poisoned[m.Addr]})
			d.drain(m.Addr, l)
		})
	case hE, hM:
		if l.owner == m.Src {
			panic(fmt.Sprintf("hmesi: owner %d re-requests M for %v", m.Src, m.Addr))
		}
		// Pipelined ownership hand-off: forward and move on. The old
		// owner sends GDataM peer-to-peer; the new owner stalls any
		// forwards it sees until its data arrives.
		d.Stats.Fwds++
		d.send(&msg.Msg{Type: msg.GFwdGetM, Addr: m.Addr, Dst: l.owner, Req: m.Src,
			VNet: msg.VSnp})
		old := l.state
		l.lastFwdFrom = l.owner
		l.state = hM
		l.owner = m.Src
		if d.Tracer != nil {
			// Same stable state, new owner: the handoff is the event.
			d.traceState(m.Addr, old, "GFwdGetM")
		}
	}
}

func (d *Dir) putM(m *msg.Msg) {
	l := d.line(m.Addr)
	d.Stats.Writes++
	if m.Poisoned && m.Data != nil {
		// Poison follows the writeback home: memory's copy is now the
		// poisoned one.
		d.poisoned[m.Addr] = true
	}
	if l.owner == m.Src {
		// An eviction from the current owner proves it holds data: the
		// hand-off that delivered to it completed.
		l.lastFwdFrom = msg.None
	}
	if l.busy && l.copyBackFrom == m.Src {
		// The owner's eviction crossed our GFwdGetS: its PutM doubles as
		// the copy-back; the evicting owner has answered the requestor
		// peer-to-peer and drops its copy.
		d.dram.Write(m.Addr, *m.Data, nil)
		old := l.state
		l.owner = msg.None
		l.sharers = d.liveSharers(l.pendingReq)
		l.state = hS
		if l.sharers.Empty() {
			l.state = hI
		}
		l.copyBackFrom, l.pendingReq = msg.None, msg.None
		l.busy = false
		if d.Tracer != nil {
			d.traceState(m.Addr, old, "GPutM (crossed fwd)")
		}
		d.send(&msg.Msg{Type: msg.GPutAck, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp})
		d.drain(m.Addr, l)
		return
	}
	if !l.busy && (l.state == hM || l.state == hE) && l.owner == m.Src {
		d.dram.Write(m.Addr, *m.Data, nil)
		old := l.state
		l.state = hI
		l.owner = msg.None
		if d.Tracer != nil {
			d.traceState(m.Addr, old, "GPutM")
		}
	}
	// Otherwise stale (ownership already handed to someone else via a
	// pipelined GFwdGetM): ack and drop.
	d.send(&msg.Msg{Type: msg.GPutAck, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp})
}

func (d *Dir) putS(m *msg.Msg) {
	l := d.line(m.Addr)
	d.Stats.Writes++
	if l.busy && l.copyBackFrom == m.Src {
		// Clean owner eviction crossing a GFwdGetS: memory is already
		// current (the owner was E); complete the pending read.
		old := l.state
		l.owner = msg.None
		l.sharers = d.liveSharers(l.pendingReq)
		l.state = hS
		if l.sharers.Empty() {
			l.state = hI
		}
		l.copyBackFrom, l.pendingReq = msg.None, msg.None
		l.busy = false
		if d.Tracer != nil {
			d.traceState(m.Addr, old, "GPutS (crossed fwd)")
		}
		d.send(&msg.Msg{Type: msg.GPutAck, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp})
		d.drain(m.Addr, l)
		return
	}
	old := l.state
	switch {
	case l.state == hS && l.sharers.Has(m.Src):
		l.sharers.Remove(m.Src)
		if l.sharers.Empty() {
			l.state = hI
		}
	case (l.state == hE || l.state == hM) && l.owner == m.Src && !l.busy:
		// Clean-exclusive eviction.
		l.state = hI
		l.owner = msg.None
	}
	if d.Tracer != nil && l.state != old {
		d.traceState(m.Addr, old, "GPutS")
	}
	d.send(&msg.Msg{Type: msg.GPutAck, Addr: m.Addr, Dst: m.Src, VNet: msg.VRsp})
}

func (d *Dir) copyBack(m *msg.Msg) {
	l := d.line(m.Addr)
	if m.Poisoned && m.Data != nil {
		d.poisoned[m.Addr] = true
	}
	if l.lastFwdFrom != msg.None && (l.owner == m.Src || l.copyBackFrom == m.Src) {
		// The downgrading owner demonstrably holds data.
		l.lastFwdFrom = msg.None
	}
	if !l.busy || l.copyBackFrom != m.Src {
		// The matching eviction already satisfied the downgrade; the
		// duplicate copy carries identical bytes.
		if m.Data != nil {
			d.dram.Write(m.Addr, *m.Data, nil)
		}
		return
	}
	d.dram.Write(m.Addr, *m.Data, nil)
	old := l.state
	l.sharers = d.liveSharers(l.copyBackFrom, l.pendingReq)
	l.state = hS
	if l.sharers.Empty() {
		l.state = hI
	}
	l.owner = msg.None
	l.copyBackFrom, l.pendingReq = msg.None, msg.None
	l.busy = false
	if d.Tracer != nil {
		d.traceState(m.Addr, old, "GCopyBack")
	}
	d.drain(m.Addr, l)
}

func (d *Dir) drain(a mem.LineAddr, l *hline) {
	if l.busy || len(l.queue) == 0 {
		return
	}
	next := l.queue[0]
	l.queue = l.queue[1:]
	d.k.After(1, func() { d.Recv(next) })
}

// liveSharers builds a sharer set from ids, skipping unset or dead ones
// (a crashed host must never be re-registered by a crossed flow that was
// in flight when it died).
func (d *Dir) liveSharers(ids ...msg.NodeID) msg.NodeSet {
	var m msg.NodeSet
	for _, id := range ids {
		if id != msg.None && !d.dead.Has(id) {
			m.Add(id)
		}
	}
	return m
}

// Reclaim summarizes one host-isolation walk (same shape as the DCOH's).
type Reclaim struct {
	Reclaimed     int
	Poisoned      int
	PoisonedLines []mem.LineAddr
	NAKed         int
}

// ReclaimHost runs the host-isolation walk for a crashed host h: scrub h
// from every sharer vector and owner pointer (poisoning lines whose only
// copy died with it), complete in-flight flows that waited on h with
// synthesized poisoned grants so surviving requestors unblock, and drop
// h's queued requests. Lines are walked in address order so synthesized
// messages are scheduled deterministically.
//
// Known limitation, documented in DESIGN.md §10: the directory tracks
// only the most recent pipelined GFwdGetM hand-off per line, so a chain
// of two in-flight hand-offs where the *earlier* source crashes can
// leave the middle host waiting (the watchdog's dead-host class catches
// it). Real back-invalidation has the same window; CXL closes it with
// timeouts at the requestor, which the C3 layer's PeerDead pass models.
func (d *Dir) ReclaimHost(h msg.NodeID) Reclaim {
	d.dead.Add(h)
	var r Reclaim
	poison := func(a mem.LineAddr) {
		if d.poisoned[a] {
			return
		}
		d.poisoned[a] = true
		r.Poisoned++
		r.PoisonedLines = append(r.PoisonedLines, a)
	}
	addrs := make([]mem.LineAddr, 0, len(d.lines))
	for a := range d.lines {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		l := d.lines[a]
		if l.busy && l.copyBackFrom == h {
			// The downgrading owner died owing GDataS to the requestor and
			// GCopyBack to us: data lost. Synthesize a poisoned grant from
			// memory so the requestor's acquire completes.
			r.Reclaimed++
			req := l.pendingReq
			old := l.state
			l.owner = msg.None
			l.copyBackFrom, l.pendingReq = msg.None, msg.None
			l.busy = false
			l.sharers = d.liveSharers(req)
			l.state = hS
			if l.sharers.Empty() {
				l.state = hI
			}
			poison(a)
			if req != msg.None && !d.dead.Has(req) {
				r.NAKed++
				d.synthGrant(msg.GData, a, req)
			}
			if d.Tracer != nil {
				d.traceState(a, old, "reclaim (copy-back owner died)")
			}
			d.drain(a, l)
		} else if l.busy && l.pendingReq == h {
			// The requestor of an owner downgrade died; the surviving
			// owner's GCopyBack still completes the flow, it just must not
			// re-register the dead host (liveSharers handles that).
			l.pendingReq = msg.None
			r.NAKed++
		}
		if l.lastFwdFrom == h {
			// A pipelined M hand-off from the dead host may still be in
			// flight (or lost on the downed link). Synthesize a poisoned
			// ownership grant to the recorded target; if the real GDataM
			// already arrived, the target has no open transaction and
			// drops the duplicate.
			l.lastFwdFrom = msg.None
			if l.owner != msg.None && l.owner != h && !d.dead.Has(l.owner) {
				poison(a)
				r.NAKed++
				d.synthGrant(msg.GDataM, a, l.owner)
			}
		}
		if l.sharers.Has(h) {
			l.sharers.Remove(h)
			r.Reclaimed++
			if l.sharers.Empty() && l.state == hS && !l.busy {
				old := l.state
				l.state = hI
				if d.Tracer != nil {
					d.traceState(a, old, "reclaim (last sharer died)")
				}
			}
		}
		if l.owner == h {
			r.Reclaimed++
			old := l.state
			if l.state == hE || l.state == hM {
				poison(a)
			}
			l.owner = msg.None
			l.state = hI
			if d.Tracer != nil {
				d.traceState(a, old, "reclaim (owner died)")
			}
		}
		if len(l.queue) > 0 {
			kept := l.queue[:0]
			for _, m := range l.queue {
				if m.Src == h {
					r.NAKed++
					continue
				}
				kept = append(kept, m)
			}
			l.queue = kept
		}
	}
	sort.Slice(r.PoisonedLines, func(i, j int) bool { return r.PoisonedLines[i] < r.PoisonedLines[j] })
	return r
}

// synthGrant reads memory and delivers a poisoned grant on the response
// channel — the NAK/poison completion that unblocks a surviving waiter
// after its data source died.
func (d *Dir) synthGrant(t msg.Type, a mem.LineAddr, dst msg.NodeID) {
	d.dram.Read(a, func(data mem.Data) {
		d.send(&msg.Msg{Type: t, Addr: a, Dst: dst, VNet: msg.VRsp,
			Data: msg.WithData(data), Poisoned: true})
	})
}

// ReferencesHost reports whether any directory state still names h.
func (d *Dir) ReferencesHost(h msg.NodeID) bool {
	for _, l := range d.lines {
		if l.owner == h || l.sharers.Has(h) || l.copyBackFrom == h ||
			l.pendingReq == h || l.lastFwdFrom == h {
			return true
		}
		for _, m := range l.queue {
			if m.Src == h {
				return true
			}
		}
	}
	return false
}

// PoisonedLine reports whether a's data has been lost to a crash.
func (d *Dir) PoisonedLine(a mem.LineAddr) bool { return d.poisoned[a] }

// ReviveHost re-admits a previously reclaimed host (crash rejoin): its
// messages are accepted again. The host must come back cold — its state
// was reclaimed at crash time and is not restored. Poison is sticky.
func (d *Dir) ReviveHost(h msg.NodeID) { d.dead.Remove(h) }

// StateOf reports the directory view for tests and invariants.
func (d *Dir) StateOf(a mem.LineAddr) (state string, owner msg.NodeID, sharers []msg.NodeID) {
	l := d.lines[a]
	if l == nil {
		return "I", msg.None, nil
	}
	return hname(l.state), l.owner, l.sharers.IDs()
}
