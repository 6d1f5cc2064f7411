package hmesi

import (
	"c3/internal/mem"
	"c3/internal/msg"
	"c3/internal/network"
	"c3/internal/sim"
)

// Clone returns a deep copy of the directory for model-checker
// snapshots, attached to kernel k, fabric net, and an already-cloned
// dram. All directory state is plain data; memory-access continuations
// live as kernel events and must have drained before cloning. The
// tracer is not carried over.
//
// Messages are immutable after Send (see msg.Msg), so queued *msg.Msg
// pointers are shared with the original rather than deep-copied; queue
// slice headers are still private, so post-clone appends never touch
// the original's backing array. Directory records are allocated as one
// slab, and sharer/dead vectors are NodeSet values that copy with their
// struct — a clone costs O(lines) flat copies, not O(lines) maps.
func (d *Dir) Clone(k *sim.Kernel, net network.Fabric, dram *mem.DRAM) *Dir {
	n := &Dir{
		id: d.id, k: k, dram: dram, Lat: d.Lat, out: network.NewOutbox(k, net),
		lines:    make(map[mem.LineAddr]*hline, len(d.lines)),
		dead:     d.dead,
		poisoned: make(map[mem.LineAddr]bool, len(d.poisoned)),
		Stats:    d.Stats,
	}
	for a, v := range d.poisoned {
		n.poisoned[a] = v
	}
	slab := make([]hline, len(d.lines))
	i := 0
	for a, l := range d.lines {
		nl := &slab[i]
		i++
		*nl = *l
		if len(l.queue) > 0 {
			nl.queue = append([]*msg.Msg(nil), l.queue...)
		}
		n.lines[a] = nl
	}
	return n
}
