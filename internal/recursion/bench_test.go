package recursion

import (
	"testing"

	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
)

// BenchmarkFrameOverhead measures the cost of the coroutine machinery: a
// fib(14) run creates ~1200 frames, each an iter.Pull coroutine with one
// switch in and one out per yield.
func BenchmarkFrameOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net, err := mapping.New(mapping.Config{
			Physical: mesh.MustTorus(8, 8),
			Mapper:   mapping.NewRoundRobin(),
			Factory:  AppFactory(fibTask),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := net.Trigger(0, 14); err != nil {
			b.Fatal(err)
		}
		if stats := net.Run(); !stats.Quiescent {
			b.Fatal("no quiescence")
		}
	}
}
