package network

import (
	"c3/internal/msg"
	"c3/internal/sim"
)

// Outbox hands a controller's messages to a fabric after the
// controller's fixed occupancy delay. Every pending message waits the
// same delay, so they reach the fabric in send order: the pending
// messages form a FIFO, and one plain event function pops its head, with
// no closure per message. The zero value is unusable; build it with
// NewOutbox.
type Outbox struct {
	k     *sim.Kernel
	net   Fabric
	delay sim.Time
	q     []*msg.Msg
	head  int
}

// NewOutbox returns an outbox sending into net on kernel k.
func NewOutbox(k *sim.Kernel, net Fabric) Outbox { return Outbox{k: k, net: net} }

// Send queues m for the fabric delay cycles from now. The delay must not
// change while messages are pending (it would reorder the FIFO).
func (o *Outbox) Send(m *msg.Msg, delay sim.Time) {
	if o.head < len(o.q) && delay != o.delay {
		panic("network: outbox delay changed with messages pending")
	}
	o.delay = delay
	o.q = append(o.q, m)
	o.k.ScheduleArg(o.k.Now()+delay, outboxFire, o)
}

func outboxFire(a any) {
	o := a.(*Outbox)
	m := o.q[o.head]
	o.q[o.head] = nil
	o.head++
	switch {
	case o.head == len(o.q):
		o.q, o.head = o.q[:0], 0
	case o.head >= 32 && 2*o.head >= len(o.q):
		// Never drained: slide the live tail down so the backing array
		// stays bounded by the peak backlog.
		n := copy(o.q, o.q[o.head:])
		clear(o.q[n:])
		o.q, o.head = o.q[:n], 0
	}
	o.net.Send(m)
}
