package network

import (
	"testing"

	"c3/internal/msg"
	"c3/internal/sim"
)

type recordFabric struct {
	k   *sim.Kernel
	got []uint64
	at  []sim.Time
}

func (f *recordFabric) Send(m *msg.Msg) {
	f.got = append(f.got, m.Val)
	f.at = append(f.at, f.k.Now())
}

// TestOutboxFIFO: every message reaches the fabric exactly delay cycles
// after its send, in send order, including through a backlog that never
// drains (which exercises the compaction path) and after it drains.
func TestOutboxFIFO(t *testing.T) {
	k := &sim.Kernel{}
	f := &recordFabric{k: k}
	o := NewOutbox(k, f)
	const delay, n = 5, 1000
	sent := make([]sim.Time, 0, n)
	// Three sends per cycle for n/3 cycles: the outbox never empties.
	var sendTick func()
	var seq uint64
	sendTick = func() {
		for i := 0; i < 3 && seq < n; i++ {
			o.Send(&msg.Msg{Val: seq}, delay)
			sent = append(sent, k.Now())
			seq++
		}
		if seq < n {
			k.After(1, sendTick)
		}
	}
	sendTick()
	k.RunLimit(0)
	if len(f.got) != n {
		t.Fatalf("delivered %d of %d", len(f.got), n)
	}
	for i := range f.got {
		if f.got[i] != uint64(i) || f.at[i] != sent[i]+delay {
			t.Fatalf("delivery %d: msg %d at t=%d, want msg %d at t=%d", i, f.got[i], f.at[i], i, sent[i]+delay)
		}
	}
	if cap(o.q) > 64 {
		t.Errorf("backlog of ~%d held in a %d-slot array: compaction did not bound it", 3*delay, cap(o.q))
	}
	if len(o.q) != 0 || o.head != 0 {
		t.Errorf("drained outbox holds q=%d head=%d", len(o.q), o.head)
	}
}

func TestOutboxDelayChangePanics(t *testing.T) {
	k := &sim.Kernel{}
	o := NewOutbox(k, &recordFabric{k: k})
	o.Send(&msg.Msg{}, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("changing the delay with messages pending should panic")
		}
	}()
	o.Send(&msg.Msg{}, 3)
}
