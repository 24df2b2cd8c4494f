package simulator

import (
	"testing"
)

// decodeCase maps an arbitrary fuzz payload onto a bounded Case. Every
// byte sequence decodes to a valid configuration (fuzzing explores the
// config space, not the parser), and the mapping is total and
// deterministic so crashers replay exactly.
func decodeCase(data []byte) Case {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	topos := []string{
		"ring:3", "ring:6", "ring:11", "full:4", "full:7", "star:5",
		"hypercube:2", "hypercube:3", "torus:3x3", "torus:4x4", "grid:3x4", "grid:2x6",
	}
	workloads := []string{"flood", "chain", "burst", "demand", "silent"}
	latencies := []int64{1, 2, 3, 5, 9, 17, 63, 200}
	maxSteps := []int64{1, 2, 7, 64, 300, 1024, 2048, 4096}
	c := Case{
		Topo:            topos[int(at(0))%len(topos)],
		Workload:        workloads[int(at(1))%len(workloads)],
		Param:           1 + int(at(2))%4,
		DeliverPerStep:  1 + int(at(3))%3,
		LinkLatency:     latencies[int(at(4))%len(latencies)],
		MaxSteps:        maxSteps[int(at(5))%len(maxSteps)],
		Seed:            int64(at(6)) | int64(at(7))<<8,
		Injections:      int(at(8)) % 6,
		RetransmitAfter: int64(1 + at(9)%12),
		RecordSeries:    at(10)%2 == 0,
		Observe:         at(10)%4 < 2,
	}
	if at(11)%2 == 1 {
		c.QueueModel = LinkQueues
	}
	if at(12)%3 == 0 {
		c.QueueCap = 1 + int(at(12))%4
	}
	if at(13)%3 == 0 {
		c.LossRate = float64(1+at(13)%8) / 16
		// Keep the retransmit timeout past the ack round trip (see
		// randomCase) and the horizon short enough that worst-case
		// backpressure thrash stays cheap per fuzz iteration.
		c.RetransmitAfter = 2*c.LinkLatency + 1 + int64(at(9)%8)
		if c.MaxSteps > 1024 {
			c.MaxSteps = 1024
		}
		if c.LinkLatency > 17 {
			c.LinkLatency = 17
		}
	}
	if c.Workload == "flood" && c.Param > 3 {
		c.Param = 3
	}
	return c
}

// FuzzEngineEquivalence feeds arbitrary byte strings through decodeCase and
// requires the sweep and event engines to stay bit-identical on the result.
// The seed corpus in testdata/fuzz covers each workload, both queue models,
// loss+reliability and a horizon truncation; CI runs a short -fuzztime
// smoke on top of the checked-in corpus.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 1, 4, 42, 0, 0, 3, 0, 0, 1, 1})    // flood, node queues
	f.Add([]byte{3, 1, 3, 1, 5, 5, 7, 1, 2, 4, 1, 1, 0, 0})     // chain, link queues, capped, lossy
	f.Add([]byte{8, 2, 1, 0, 2, 4, 0, 0, 0, 2, 2, 0, 1, 1})     // burst on a torus
	f.Add([]byte{6, 3, 2, 2, 0, 6, 9, 9, 5, 1, 0, 1, 0, 3})     // demand ticker, link queues
	f.Add([]byte{1, 4, 1, 0, 7, 0, 0, 0, 4, 1, 1, 0, 3, 0})     // silent + injections, MaxSteps=1
	f.Add([]byte{11, 1, 4, 1, 6, 2, 250, 3, 1, 11, 0, 1, 0, 0}) // chain truncated at a tiny horizon
	f.Fuzz(func(t *testing.T, data []byte) {
		assertIdentical(t, decodeCase(data))
	})
}
