package hostproto

import (
	"c3/internal/cpu"
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/sim"
)

// Clone returns a deep copy of the L1 for model-checker snapshots,
// attached to kernel k and fabric net. Pending core completions are the
// one piece of L1 state that is not plain data: each queued pendingOp
// holds the original core's completion function. The request token (see
// cpu.Request.Token) is echoed in the response, so that function is the
// same for every op of a core, and the clone swaps in done — the cloned
// core's Completion — making the snapshot's completion path identical to
// the original's. The tracer is not carried over (checker models are
// untraced).
func (l *L1) Clone(k *sim.Kernel, net network.Fabric, done func(cpu.Response)) *L1 {
	n := &L1{
		id: l.id, dir: l.dir, k: k, net: net,
		c: l.c.Clone(), cfg: l.cfg,
		reqs:     make(map[mem.LineAddr]*reqTBE, len(l.reqs)),
		evs:      make(map[mem.LineAddr]*evictTBE, len(l.evs)),
		Accesses: l.Accesses, Misses: l.Misses,
	}
	rebind := func(ops []pendingOp) []pendingOp {
		if len(ops) == 0 {
			return nil
		}
		out := make([]pendingOp, len(ops))
		for i, op := range ops {
			if op.req.Token == 0 {
				panic("hostproto: Clone of L1 with an untracked pending op")
			}
			op.done = done
			out[i] = op
		}
		return out
	}
	for a, t := range l.reqs {
		nt := &reqTBE{
			addr: t.addr, wantM: t.wantM, started: t.started,
			invalidated: t.invalidated, opsAtInv: t.opsAtInv,
			ops: rebind(t.ops),
		}
		if len(t.stalledSnps) > 0 {
			// Immutable after Send (see msg.Msg): share the pointers,
			// copy only the slice header's backing.
			nt.stalledSnps = append([]*msg.Msg(nil), t.stalledSnps...)
		}
		n.reqs[a] = nt
	}
	for a, t := range l.evs {
		ct := *t
		n.evs[a] = &ct
	}
	n.deferred = rebind(l.deferred)
	return n
}
