package simulator

import (
	"testing"

	"hypersolve/internal/mesh"
)

// BenchmarkFloodStep measures raw simulation throughput: a full flood of a
// 32x32 torus per iteration.
func BenchmarkFloodStep(b *testing.B) {
	topo := mesh.MustTorus(32, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := NewSkeleton(topo).New(func(mesh.NodeID) Handler { return &floodHandler{} }, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Inject(0, nil); err != nil {
			b.Fatal(err)
		}
		if stats := sim.Run(); !stats.Quiescent {
			b.Fatal("no quiescence")
		}
	}
}

// BenchmarkFloodQueueModels compares the two queue disciplines on identical
// traffic.
func BenchmarkFloodQueueModels(b *testing.B) {
	topo := mesh.MustTorus(16, 16)
	for _, model := range []QueueModel{NodeQueues, LinkQueues} {
		b.Run(model.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := NewSkeleton(topo).New(func(mesh.NodeID) Handler { return &floodHandler{} }, Config{LinkConfig: LinkConfig{QueueModel: model}})
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.Inject(0, nil); err != nil {
					b.Fatal(err)
				}
				sim.Run()
			}
		})
	}
}

// BenchmarkReliabilityOverhead measures the ack/retransmit protocol cost on
// lossless links (pure bookkeeping overhead).
func BenchmarkReliabilityOverhead(b *testing.B) {
	topo := mesh.MustTorus(12, 12)
	for _, reliable := range []bool{false, true} {
		name := "raw"
		if reliable {
			name = "reliable"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := NewSkeleton(topo).New(func(mesh.NodeID) Handler { return &floodHandler{} }, Config{LinkConfig: LinkConfig{Reliable: reliable}})
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.Inject(0, nil); err != nil {
					b.Fatal(err)
				}
				sim.Run()
			}
		})
	}
}
