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
	// Cancel revokes a previously sent work message: the receiver should
	// abandon the work and will not reply. Used by the speculative
	// cancellation extension of the recursion layer.
	Cancel
)

func (k Kind) String() string {
	switch k {
	case Trigger:
		return "trigger"
	case Work:
		return "work"
	case Reply:
		return "reply"
	case Cancel:
		return "cancel"
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

// Config assembles a mapped cluster.
type Config struct {
	// Physical is the hardware interconnect.
	Physical mesh.Topology
	// ProcsPerNode configures layer 2.
	ProcsPerNode int
	// Mapper builds the mapping algorithm for each node.
	Mapper Factory
	// Factory builds the layer-3 application for each process.
	Factory AppFactory
	// Seed drives mapper randomness.
	Seed int64
	// Sim carries layer-1 options.
	Sim simulator.Config
}

// Network is a simulated machine with layers 1-3 installed.
type Network struct {
	cluster  *sched.Cluster
	runtimes []*runtime
	mapped   int64 // work messages mapped so far (View.Mapped)
	// free holds envelopes their receivers have unpacked, for the next send.
	free []*envelope
}

// New builds the network.
func New(cfg Config) (*Network, error) {
	if cfg.Mapper == nil {
		return nil, fmt.Errorf("mapping: Config.Mapper is nil")
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("mapping: Config.Factory is nil")
	}
	n := &Network{}
	cluster, err := sched.New(sched.Config{
		Physical:     cfg.Physical,
		ProcsPerNode: cfg.ProcsPerNode,
		Sim:          cfg.Sim,
		Factory: func(p sched.PID) sched.Process {
			rt := newRuntime(n, p, cfg)
			for int(p) >= len(n.runtimes) {
				n.runtimes = append(n.runtimes, nil)
			}
			n.runtimes[int(p)] = rt
			return rt
		},
	})
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
	for i, rt := range n.runtimes {
		out[i] = rt.received
	}
	return out
}

// Trigger queues an external trigger message for a PID.
func (n *Network) Trigger(dst sched.PID, payload any) error {
	return n.cluster.Inject(dst, n.envelope(envelope{Kind: Trigger, Payload: payload}))
}

// Run executes the simulation to quiescence.
func (n *Network) Run() simulator.Stats { return n.cluster.Run() }

// RunContext is Run with cooperative cancellation; see
// simulator.RunContext for the slice-granular polling contract.
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

	nbrs        []sched.PID
	nbrIndex    map[sched.PID]int
	loads       []int64
	outstanding []float64

	received  int64
	nextSeq   uint64
	ticketSrc map[Ticket]sched.PID // incoming work ticket -> requester
	sentTo    map[Ticket]sched.PID // outgoing work ticket -> destination
	initDone  bool
	// ctx is the one Context handed to the app on every activation.
	ctx Context

	// Captured at construction, consumed in Init once the neighbour list
	// is known.
	mapperSeed    int64
	mapperFactory Factory
}

func newRuntime(net *Network, p sched.PID, cfg Config) *runtime {
	rt := &runtime{net: net, self: p, app: cfg.Factory(p)}
	if rt.app == nil {
		panic(fmt.Sprintf("mapping: app factory returned nil for pid %d", p))
	}
	rt.ticketSrc = make(map[Ticket]sched.PID)
	rt.sentTo = make(map[Ticket]sched.PID)
	// Neighbour-aligned state is completed lazily in Init when the layer-2
	// context (and thus the virtual topology view) is available.
	rt.mapperSeed = cfg.Seed
	rt.mapperFactory = cfg.Mapper
	return rt
}

func (rt *runtime) Init(ctx *sched.Context) {
	rt.nbrs = ctx.Neighbours()
	rt.nbrIndex = make(map[sched.PID]int, len(rt.nbrs))
	for i, nb := range rt.nbrs {
		rt.nbrIndex[nb] = i
	}
	rt.loads = make([]int64, len(rt.nbrs))
	rt.outstanding = make([]float64, len(rt.nbrs))
	rt.algo = rt.mapperFactory(rt.self, rt.nbrs, rt.mapperSeed^int64(rt.self)*0x9E3779B9)
	rt.initDone = true
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
		rt.ticketSrc[env.Ticket] = src
		rt.app.Recv(mctx, env.Ticket, Work, env.Payload)
	case Reply:
		delete(rt.sentTo, env.Ticket)
		rt.app.Recv(mctx, env.Ticket, Reply, env.Payload)
	case Cancel:
		// The requester revoked this work; it no longer expects a reply.
		delete(rt.ticketSrc, env.Ticket)
		rt.app.Recv(mctx, env.Ticket, Cancel, env.Payload)
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
	rt.sentTo[ticket] = dst
	return ticket, nil
}

// Cancel revokes work this node previously mapped out. The receiver drops
// the work (and recursively cancels its own subcalls, at the recursion
// layer); no reply will arrive for the ticket. Cancelling a ticket whose
// reply has already been received returns an error.
func (c *Context) Cancel(ticket Ticket) error {
	rt := c.rt
	dst, ok := rt.sentTo[ticket]
	if !ok {
		return fmt.Errorf("mapping: pid %d cancelling unknown ticket %d", rt.self, ticket)
	}
	delete(rt.sentTo, ticket)
	env := rt.net.envelope(envelope{Kind: Cancel, Ticket: ticket, Activity: rt.received})
	return c.sctx.Send(dst, env)
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
