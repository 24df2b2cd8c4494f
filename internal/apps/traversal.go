package apps

import (
	"hypersolve/internal/mesh"
	"hypersolve/internal/simulator"
)

// Traversal is the paper's Listing 1: a message-passing node traversal
// written directly against layer 1. On its first message each node marks
// itself visited, records the step, and forwards an empty message to every
// neighbour. It demonstrates the raw (init, receive) programming model the
// upper layers abstract away, and doubles as a mesh-wide flood/BFS:
// VisitStep approximates hop distance from the trigger node.
type Traversal struct {
	visited bool
	step    int64
}

// Init implements simulator.Handler.
func (tr *Traversal) Init(ctx *simulator.Context) {}

// Receive implements simulator.Handler: flood on first contact.
func (tr *Traversal) Receive(ctx *simulator.Context, src mesh.NodeID, payload simulator.Payload) {
	if tr.visited {
		return
	}
	tr.visited = true
	tr.step = ctx.Step()
	for _, n := range ctx.Neighbours() {
		if err := ctx.Send(n, nil); err != nil {
			// Layer 1 only rejects non-adjacent destinations, which cannot
			// happen when iterating Neighbours; treat as fatal.
			panic(err)
		}
	}
}

// Visited reports whether the flood reached this node.
func (tr *Traversal) Visited() bool { return tr.visited }

// VisitStep returns the step at which the node was first visited.
func (tr *Traversal) VisitStep() int64 { return tr.step }

// RunTraversal floods the topology from the given start node and returns
// the visit step of every node plus the run statistics.
func RunTraversal(topo mesh.Topology, start mesh.NodeID, maxSteps int64) ([]int64, simulator.Stats, error) {
	sim, err := simulator.NewSkeleton(topo).New(
		func(mesh.NodeID) simulator.Handler { return &Traversal{} },
		simulator.Config{MaxSteps: maxSteps})
	if err != nil {
		return nil, simulator.Stats{}, err
	}
	if err := sim.Inject(start, nil); err != nil {
		return nil, simulator.Stats{}, err
	}
	stats := sim.Run()
	steps := make([]int64, topo.Size())
	for n := 0; n < topo.Size(); n++ {
		h := sim.Handler(mesh.NodeID(n)).(*Traversal)
		if h.Visited() {
			steps[n] = h.VisitStep()
		} else {
			steps[n] = -1
		}
	}
	return steps, stats, nil
}
