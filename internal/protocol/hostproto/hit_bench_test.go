package hostproto

import (
	"testing"

	"c3/internal/cpu"
	"c3/internal/msg"
	"c3/internal/sim"
)

// loopSource issues the same instruction forever.
type loopSource struct{ in cpu.Instr }

func (s *loopSource) Next() (cpu.Instr, bool)    { return s.in, true }
func (s *loopSource) Complete(cpu.Instr, uint64) {}

// BenchmarkL1Hit drives a real core against a real MESI L1 holding its
// line in M: one op is one retired load or store, each a full
// core -> L1 -> core round trip through the kernel. The steady state is
// allocation-free (CI gates it at 0 allocs/op).
func BenchmarkL1Hit(b *testing.B) {
	for _, kind := range []cpu.Kind{cpu.Load, cpu.Store} {
		b.Run(kind.String(), func(b *testing.B) {
			k := &sim.Kernel{}
			l1 := NewL1(l1ID, dirID, k, &fakeDir{}, DefaultConfig(MESI))
			l1.Access(cpu.Request{Kind: cpu.Store, Addr: addrX, Val: 1}, func(cpu.Response) {})
			l1.Recv(&msg.Msg{Type: msg.DataM, Addr: lineX, Data: data(0, 0)})
			k.RunLimit(0)

			src := &loopSource{in: cpu.Instr{Kind: kind, Addr: addrX, Val: 7}}
			c := cpu.New(0, k, cpu.DefaultConfig(cpu.WMO), l1, src, nil)
			c.Start()
			run := func(n uint64) {
				for target := c.Retired + n; c.Retired < target; {
					k.Step()
				}
			}
			run(1000) // grow the window, store buffer and free lists
			misses := l1.Misses
			b.ReportAllocs()
			b.ResetTimer()
			run(uint64(b.N))
			b.StopTimer()
			if l1.Misses != misses {
				b.Fatalf("%d L1 misses on a warmed line", l1.Misses-misses)
			}
		})
	}
}
