package recursion

import (
	"context"
	"testing"

	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/simulator"
)

// BenchmarkFrameOverhead measures what layers 1-4 charge for a frame whose
// layer 5 is one addition: a fib(14) run, machine build included, is 1219
// frames on an 8x8 torus. Frames run on pooled worker coroutines — two
// switches per frame plus one per park, and a new coroutine only when every
// worker is parked — so besides ns/frame it reports how many coroutines a
// frame costs (one, before the pool).
func BenchmarkFrameOverhead(b *testing.B) {
	b.ReportAllocs()
	var frames, coroutines int64
	for i := 0; i < b.N; i++ {
		net, err := mapping.NewSkeleton(mesh.MustTorus(8, 8), 1).New(mapping.NewRoundRobin(), AppFactory(fibTask), simulator.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := net.Trigger(0, 14); err != nil {
			b.Fatal(err)
		}
		if stats := net.RunContext(context.Background()); !stats.Quiescent {
			b.Fatal("no quiescence")
		}
		started, _ := totalFrames(net)
		frames += started
		coroutines += int64(poolOf(net).created)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/frame")
	b.ReportMetric(float64(coroutines)/float64(frames), "coroutines/frame")
}
