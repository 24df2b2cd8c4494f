// Package mapping implements layer 3 of the model of Tarawneh et al. (P2S2
// 2017): mesh-level load balancing through destination-free message passing.
//
// Applications above this layer never name destination nodes. They request
// that a piece of work be delivered *somewhere* (SendWork) and the layer
// picks the destination among the node's neighbours using a pluggable
// mapping algorithm. Because messages can no longer be identified by their
// source or destination, the layer issues a unique *ticket* per work
// message; the receiver quotes the ticket to route its reply back (Reply).
//
// Activity estimation follows the paper's least-busy-neighbour design:
// every outgoing message piggybacks the sender's total received-message
// count, and each node maintains a record of the last count heard from each
// neighbour. Adaptive mappers consult these records; static mappers ignore
// them. A mapper sees nothing else of the machine, with one exception made
// for idealised baselines (View.Mapped), so algorithms hold per-node state
// only and a Factory can be shared by any number of machines.
//
// The layer also implements the paper's cross-layer optimization hook
// (Section III-B3): senders may attach a numeric hint (e.g. estimated
// sub-problem size) that "falls through" to hint-aware mapping algorithms.
package mapping

import (
	"context"
	"fmt"

	"hypersolve/internal/mesh"
	"hypersolve/internal/sched"
	"hypersolve/internal/simulator"
)

// Ticket uniquely identifies a work message within one machine run, so that
// replies can be matched to pending requests without naming nodes.
type Ticket uint64

// NoTicket is the zero ticket, used for triggers.
const NoTicket Ticket = 0

// Kind classifies messages as seen by layer-3 applications, mirroring the
// three-way classification of the paper's Listing 2: evaluation calls,
// returned results and initialization triggers.
type Kind int

const (
	// Trigger is an external kick-start message injected by the backend.
	Trigger Kind = iota
	// Work is a new piece of work chosen for this node by the mapper.
	Work
	// Reply is a result returned for a ticket this node issued.
	Reply
)

func (k Kind) String() string {
	switch k {
	case Trigger:
		return "trigger"
	case Work:
		return "work"
	case Reply:
		return "reply"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// App is the layer-3 application interface: receive handlers observe a
// ticket in place of a sender identity.
type App interface {
	Init(ctx *Context)
	Recv(ctx *Context, ticket Ticket, kind Kind, payload any)
}

// AppFactory builds the application instance for one process.
type AppFactory func(p sched.PID) App

// View is the information a mapping algorithm may consult when choosing a
// destination. Slices are indexed by neighbour position (aligned with the
// node's neighbour list) and must not be modified.
type View struct {
	// Self is the choosing process.
	Self sched.PID
	// Neighbours lists candidate destinations.
	Neighbours []sched.PID
	// Loads holds the last piggybacked received-message count heard from
	// each neighbour (zero when nothing has been heard yet).
	Loads []int64
	// Outstanding accumulates hint weight optimistically assigned to each
	// neighbour since its last load update.
	Outstanding []float64
	// Hint is the cross-layer hint attached to the message being mapped
	// (zero when absent).
	Hint float64
	// Step is the current simulation step.
	Step int64
	// Mapped counts the work messages the whole machine has mapped before
	// this one, in SendWork order. It is global knowledge no physical node
	// has: only idealised baselines (NewGlobalRoundRobin) may read it.
	Mapped int64
}

// Algorithm is a per-node mapping policy instance. Choose returns the index
// into View.Neighbours of the selected destination.
type Algorithm interface {
	Name() string
	Choose(v View) int
}

// Factory builds a per-node Algorithm. The seed parameter derives from the
// machine seed and the node ID, keeping randomized mappers deterministic.
type Factory func(self sched.PID, nbrs []sched.PID, seed int64) Algorithm

// Network is a simulated machine with layers 1-3 installed.
type Network struct {
	cluster *sched.Cluster
	// runtimes holds one runtime per PID; their neighbour-aligned loads
	// and outstanding weights are segments of two machine-wide slabs.
	runtimes []runtime
	mapped   int64 // work messages mapped so far (View.Mapped)
	// free holds envelopes their receivers have unpacked, for the next send.
	free []*envelope
}

// Skeleton is the part of a mapped machine that depends only on the
// physical topology and the process slots per node: the layer-2 skeleton
// and, for every PID, the position of each neighbour in its list. It is
// immutable once built, so any number of networks, concurrent or not, may
// share one (see Skeleton.New).
type Skeleton struct {
	sched *sched.Skeleton
	// nbrIndex[p] maps each neighbour of PID p to its position in p's list.
	nbrIndex []map[sched.PID]int
	// off[p]..off[p+1] brackets PID p's segment of the neighbour-aligned
	// run-state slabs.
	off []int
}

// NewSkeleton builds the skeleton of a machine with procsPerNode slots on
// every node of phys; values below 1 default to 1.
func NewSkeleton(phys mesh.Topology, procsPerNode int) *Skeleton {
	ssk := sched.NewSkeleton(phys, procsPerNode)
	v := ssk.Virtual()
	sk := &Skeleton{sched: ssk, nbrIndex: make([]map[sched.PID]int, v.Size()), off: make([]int, v.Size()+1)}
	for p := range sk.nbrIndex {
		nbrs := v.Neighbours(mesh.NodeID(p))
		idx := make(map[sched.PID]int, len(nbrs))
		for i, nb := range nbrs {
			idx[sched.PID(nb)] = i
		}
		sk.nbrIndex[p] = idx
		sk.off[p+1] = sk.off[p] + len(nbrs)
	}
	return sk
}

// Virtual returns the process-level topology of the skeleton.
func (sk *Skeleton) Virtual() mesh.Topology { return sk.sched.Virtual() }

// New builds a network on the skeleton that runs the applications factory
// builds, placing their work with the algorithms mapper builds, under sim;
// sim.Seed also seeds the mappers. It makes one runtime per PID, whose
// neighbour-aligned loads and outstanding weights are segments of two
// machine-wide slabs. The skeleton is only read.
func (sk *Skeleton) New(mapper Factory, factory AppFactory, sim simulator.Config) (*Network, error) {
	if mapper == nil {
		return nil, fmt.Errorf("mapping: mapper factory is nil")
	}
	if factory == nil {
		return nil, fmt.Errorf("mapping: app factory is nil")
	}
	n := &Network{runtimes: make([]runtime, len(sk.nbrIndex))}
	links := sk.off[len(sk.nbrIndex)]
	loads, outstanding := make([]int64, links), make([]float64, links)
	cluster, err := sk.sched.New(func(p sched.PID) sched.Process {
		lo, hi := sk.off[p], sk.off[p+1]
		rt := &n.runtimes[p]
		*rt = runtime{
			net:           n,
			self:          p,
			app:           factory(p),
			nbrIndex:      sk.nbrIndex[p],
			loads:         loads[lo:hi:hi],
			outstanding:   outstanding[lo:hi:hi],
			mapperSeed:    sim.Seed,
			mapperFactory: mapper,
		}
		if rt.app == nil {
			panic(fmt.Sprintf("mapping: app factory returned nil for pid %d", p))
		}
		return rt
	}, sim)
	if err != nil {
		return nil, err
	}
	n.cluster = cluster
	return n, nil
}

// Cluster exposes the underlying layer-2 cluster.
func (n *Network) Cluster() *sched.Cluster { return n.cluster }

// Virtual returns the process-level topology.
func (n *Network) Virtual() mesh.Topology { return n.cluster.Virtual() }

// App returns the application instance behind a PID.
func (n *Network) App(p sched.PID) App { return n.runtimes[int(p)].app }

// ReceivedPerProcess returns the layer-3 received-message count per PID —
// the quantity least-busy-neighbour mapping piggybacks, and the node
// activity metric of the paper's Figure 5 heatmaps.
func (n *Network) ReceivedPerProcess() []int64 {
	out := make([]int64, len(n.runtimes))
	for i := range n.runtimes {
		out[i] = n.runtimes[i].received
	}
	return out
}

// Trigger queues an external trigger message for a PID.
func (n *Network) Trigger(dst sched.PID, payload any) error {
	return n.cluster.Inject(dst, n.envelope(envelope{Kind: Trigger, Payload: payload}))
}

// RunContext executes the simulation to quiescence (or until ctx is done);
// see simulator.RunContext for the slice-granular polling contract.
func (n *Network) RunContext(ctx context.Context) simulator.Stats { return n.cluster.RunContext(ctx) }

// envelope is the layer-3 wire format. Envelopes travel as pointers so that
// no message is boxed on its way down: the receiver copies the envelope out,
// poisons it and hands it back for the next send. That is safe under
// retransmission, because layer 1 drops a duplicate frame before any handler
// sees its payload.
type envelope struct {
	Kind     Kind
	Ticket   Ticket
	Activity int64 // sender's total received count (piggybacked)
	Hint     float64
	Payload  any
}

// recycled is the kind of an envelope on the free list; a receiver shown one
// panics on it as on any unknown kind.
const recycled Kind = -1

// envelope returns a pooled envelope holding e.
func (n *Network) envelope(e envelope) *envelope {
	var env *envelope
	if k := len(n.free); k > 0 {
		env, n.free = n.free[k-1], n.free[:k-1]
	} else {
		env = new(envelope)
	}
	*env = e
	return env
}

// runtime is the per-process layer-3 engine: it owns the ticket table,
// activity records and the mapping algorithm instance, and adapts the
// user-facing App to the layer-2 Process interface.
type runtime struct {
	net  *Network
	self sched.PID
	app  App
	algo Algorithm

	nbrs []sched.PID
	// nbrIndex belongs to the skeleton and is only read; loads and
	// outstanding are this PID's segments of the network's slabs.
	nbrIndex    map[sched.PID]int
	loads       []int64
	outstanding []float64

	received  int64
	nextSeq   uint64
	ticketSrc map[Ticket]sched.PID // incoming work ticket -> requester, made on first use
	// ctx is the one Context handed to the app on every activation.
	ctx Context

	// Captured at construction, consumed in Init once the neighbour list
	// is known.
	mapperSeed    int64
	mapperFactory Factory
}

func (rt *runtime) Init(ctx *sched.Context) {
	rt.nbrs = ctx.Neighbours()
	rt.algo = rt.mapperFactory(rt.self, rt.nbrs, rt.mapperSeed^int64(rt.self)*0x9E3779B9)
	rt.ctx = Context{rt: rt, sctx: ctx}
	rt.app.Init(&rt.ctx)
}

func (rt *runtime) Receive(ctx *sched.Context, src sched.PID, payload any) {
	penv, ok := payload.(*envelope)
	if !ok {
		panic(fmt.Sprintf("mapping: pid %d received non-envelope payload %T", rt.self, payload))
	}
	env := *penv
	*penv = envelope{Kind: recycled}
	rt.net.free = append(rt.net.free, penv)
	rt.received++
	if src != sched.NonePID {
		if idx, ok := rt.nbrIndex[src]; ok {
			rt.loads[idx] = env.Activity
			rt.outstanding[idx] = 0 // fresh information supersedes optimism
		}
	}
	rt.ctx.sctx = ctx
	mctx := &rt.ctx
	switch env.Kind {
	case Trigger:
		rt.app.Recv(mctx, NoTicket, Trigger, env.Payload)
	case Work:
		if rt.ticketSrc == nil {
			rt.ticketSrc = make(map[Ticket]sched.PID)
		}
		rt.ticketSrc[env.Ticket] = src
		rt.app.Recv(mctx, env.Ticket, Work, env.Payload)
	case Reply:
		rt.app.Recv(mctx, env.Ticket, Reply, env.Payload)
	default:
		panic(fmt.Sprintf("mapping: pid %d received unknown kind %v", rt.self, env.Kind))
	}
}

// Context is the per-process layer-3 API surface.
type Context struct {
	rt   *runtime
	sctx *sched.Context
}

// SendWork maps a new piece of work onto a neighbour chosen by the mapping
// algorithm and returns the ticket that will identify its reply. hint is the
// cross-layer hint (e.g. estimated sub-problem size) attached to the work
// message; hint-aware mappers bias placement with it (paper Section III-B3),
// and zero or less means "no information".
func (c *Context) SendWork(payload any, hint float64) (Ticket, error) {
	rt := c.rt
	if hint < 0 {
		hint = 0
	}
	if len(rt.nbrs) == 0 {
		return NoTicket, fmt.Errorf("mapping: pid %d has no neighbours to map work onto", rt.self)
	}
	view := View{
		Self:        rt.self,
		Neighbours:  rt.nbrs,
		Loads:       rt.loads,
		Outstanding: rt.outstanding,
		Hint:        hint,
		Step:        c.sctx.Step(),
		Mapped:      rt.net.mapped,
	}
	rt.net.mapped++
	idx := rt.algo.Choose(view)
	if idx < 0 || idx >= len(rt.nbrs) {
		return NoTicket, fmt.Errorf("mapping: algorithm %s chose out-of-range index %d", rt.algo.Name(), idx)
	}
	dst := rt.nbrs[idx]
	rt.nextSeq++
	ticket := Ticket(uint64(rt.self)<<24 | rt.nextSeq&0xFFFFFF)
	weight := hint
	if weight == 0 {
		weight = 1
	}
	rt.outstanding[idx] += weight
	env := rt.net.envelope(envelope{Kind: Work, Ticket: ticket, Activity: rt.received, Hint: hint, Payload: payload})
	if err := c.sctx.Send(dst, env); err != nil {
		return NoTicket, err
	}
	return ticket, nil
}

// Reply returns a result for a work ticket to whichever node issued it.
func (c *Context) Reply(ticket Ticket, payload any) error {
	rt := c.rt
	src, ok := rt.ticketSrc[ticket]
	if !ok {
		return fmt.Errorf("mapping: pid %d replying to unknown ticket %d", rt.self, ticket)
	}
	delete(rt.ticketSrc, ticket)
	env := rt.net.envelope(envelope{Kind: Reply, Ticket: ticket, Activity: rt.received, Payload: payload})
	return c.sctx.Send(src, env)
}
