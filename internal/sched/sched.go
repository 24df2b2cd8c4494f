// Package sched implements layer 2 of the model of Tarawneh et al. (P2S2
// 2017): node-level scheduling. It maintains a number of concurrent logical
// processes on top of the message-passing interface of layer 1, so that
// applications can be expressed as state initialisation plus message
// handling functions even when processes outnumber hardware cores.
//
// Each physical node hosts a fixed number of process slots. Processes are
// addressed by a PID that is globally unique across the machine; the set of
// PIDs forms a *virtual topology* in which two processes are neighbours when
// they live on the same physical node or on adjacent physical nodes. Layers
// above (mapping, recursion) operate purely on PIDs and the virtual
// topology, which is how layer 2 hides oversubscription from them.
//
// Each step, a node activates every message waiting in its mailboxes when
// the step's tick begins, visiting process slots round-robin (the
// "round-robin" layer-2 implementation of the paper's Figure 2): computation
// is free and the network is the bottleneck, as in the paper's model.
package sched

import (
	"context"
	"fmt"

	"hypersolve/internal/mesh"
	"hypersolve/internal/ringbuf"
	"hypersolve/internal/simulator"
)

// PID identifies a logical process: node*ProcsPerNode + slot.
type PID int

// NonePID is the sentinel for "no process", used as the source of externally
// injected trigger messages.
const NonePID PID = -1

// Process is the layer-2 application interface: per-process state
// initialisation plus a receive handler.
type Process interface {
	Init(ctx *Context)
	Receive(ctx *Context, src PID, payload any)
}

// ProcessFactory builds the process for one PID.
type ProcessFactory func(p PID) Process

// Cluster is a simulated machine with layer-2 scheduling installed on every
// node. It owns the underlying layer-1 simulator.
type Cluster struct {
	sim     *simulator.Simulator
	virtual *virtualTopology
	procs   int
	// nodes holds one scheduler per physical node; their process slots and
	// contexts are segments of two machine-wide slabs.
	nodes []nodeScheduler
	// free holds envelopes their receivers have unpacked, for the next send.
	free []*envelope
}

// Skeleton is the part of a scheduled machine that depends only on the
// physical topology and the process slots per node: the layer-1 skeleton
// and the virtual topology of PIDs. It is immutable once built, so any
// number of clusters, concurrent or not, may share one (see Skeleton.New).
type Skeleton struct {
	sim     *simulator.Skeleton
	virtual *virtualTopology
}

// NewSkeleton builds the skeleton of a machine with procsPerNode slots on
// every node of phys; values below 1 default to 1.
func NewSkeleton(phys mesh.Topology, procsPerNode int) *Skeleton {
	return &Skeleton{
		sim:     simulator.NewSkeleton(phys),
		virtual: newVirtualTopology(phys, max(procsPerNode, 1)),
	}
}

// Virtual returns the PID-level topology of the skeleton.
func (sk *Skeleton) Virtual() mesh.Topology { return sk.virtual }

// New builds a cluster on the skeleton that runs the processes factory
// builds under sim: one nodeScheduler handler per physical node, whose
// process slots and contexts are segments of two machine-wide slabs. The
// skeleton is only read.
func (sk *Skeleton) New(factory ProcessFactory, sim simulator.Config) (*Cluster, error) {
	if factory == nil {
		return nil, fmt.Errorf("sched: process factory is nil")
	}
	phys, procs := sk.sim.Topology(), sk.virtual.procs
	c := &Cluster{
		virtual: sk.virtual,
		procs:   procs,
		nodes:   make([]nodeScheduler, phys.Size()),
	}
	slots := make([]procState, phys.Size()*procs)
	ctxs := make([]Context, phys.Size()*procs)
	s, err := sk.sim.New(func(n mesh.NodeID) simulator.Handler {
		ns := &c.nodes[n]
		lo, hi := int(n)*procs, int(n+1)*procs
		*ns = nodeScheduler{cluster: c, node: n, procs: slots[lo:hi:hi], ctxs: ctxs[lo:hi:hi]}
		for slot := range ns.procs {
			ns.procs[slot].proc = factory(c.PIDOf(n, slot))
		}
		return ns
	}, sim)
	if err != nil {
		return nil, err
	}
	c.sim = s
	return c, nil
}

// Virtual returns the PID-level topology the upper layers schedule over.
func (c *Cluster) Virtual() mesh.Topology { return c.virtual }

// Inject queues an external trigger message for a PID before the run starts.
func (c *Cluster) Inject(dst PID, payload any) error {
	node, slot := c.split(dst)
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("sched: inject to out-of-range pid %d", dst)
	}
	return c.sim.Inject(mesh.NodeID(node), c.envelope(envelope{SrcPID: NonePID, DstSlot: slot, Payload: payload}))
}

// RunContext executes the simulation to quiescence (or until ctx is done)
// and returns layer-1 statistics; see simulator.RunContext for the
// slice-granular polling contract.
func (c *Cluster) RunContext(ctx context.Context) simulator.Stats { return c.sim.RunContext(ctx) }

// PIDOf maps (physical node, slot) to a PID.
func (c *Cluster) PIDOf(node mesh.NodeID, slot int) PID {
	return PID(int(node)*c.procs + slot)
}

func (c *Cluster) split(p PID) (node, slot int) {
	return int(p) / c.procs, int(p) % c.procs
}

// envelope is the layer-2 wire format carried inside layer-1 payloads, as a
// pointer so that the message is not boxed again. The receiving node moves
// the content into a mailbox, poisons the envelope with a slot no node has
// and hands it back for the next send; under retransmission layer 1 drops a
// duplicate frame before any handler sees its payload.
type envelope struct {
	SrcPID  PID
	DstSlot int
	Payload any
}

// envelope returns a pooled envelope holding e.
func (c *Cluster) envelope(e envelope) *envelope {
	var env *envelope
	if k := len(c.free); k > 0 {
		env, c.free = c.free[k-1], c.free[:k-1]
	} else {
		env = new(envelope)
	}
	*env = e
	return env
}

// procState is one process slot on a node.
type procState struct {
	proc    Process
	mailbox ringbuf.Ring[inboxEntry]
}

type inboxEntry struct {
	src     PID
	payload any
}

// nodeScheduler is the layer-1 handler for one physical node. It demuxes
// arriving envelopes into per-process mailboxes and activates processes
// round-robin.
type nodeScheduler struct {
	cluster *Cluster
	node    mesh.NodeID
	procs   []procState
	// ctxs holds one reusable per-slot Context, filled in Init so that
	// activations do not allocate.
	ctxs    []Context
	cursor  int // round-robin position
	backlog int // total queued mailbox entries
	// activations counts process activations on this node, the layer-2
	// equivalent of the paper's per-node "node activity" metric (it also
	// covers intra-node messages that never cross the interconnect).
	activations int64
}

// Init fills the reusable per-slot contexts (the layer-1 context pointer is
// stable for the whole run) and initialises every process slot.
func (ns *nodeScheduler) Init(ctx *simulator.Context) {
	for slot := range ns.procs {
		ns.ctxs[slot] = Context{cluster: ns.cluster, sched: ns, simctx: ctx, self: ns.cluster.PIDOf(ns.node, slot)}
		ns.procs[slot].proc.Init(&ns.ctxs[slot])
	}
}

// Receive buffers the arriving envelope into the target slot's mailbox.
// Activation happens in Tick.
func (ns *nodeScheduler) Receive(ctx *simulator.Context, src mesh.NodeID, payload simulator.Payload) {
	env, ok := payload.(*envelope)
	if !ok {
		panic(fmt.Sprintf("sched: node %d received non-envelope payload %T", ns.node, payload))
	}
	if env.DstSlot < 0 || env.DstSlot >= len(ns.procs) {
		panic(fmt.Sprintf("sched: node %d received envelope for bad slot %d", ns.node, env.DstSlot))
	}
	ns.procs[env.DstSlot].mailbox.Push(inboxEntry{src: env.SrcPID, payload: env.Payload})
	ns.backlog++
	*env = envelope{DstSlot: -1}
	ns.cluster.free = append(ns.cluster.free, env)
}

// Tick performs the step's process activations: every entry buffered when
// the tick begins (a snapshot, so entries enqueued during this tick wait for
// the next step).
func (ns *nodeScheduler) Tick(ctx *simulator.Context) {
	for k := ns.backlog; k > 0; k-- {
		slot := ns.pickSlot()
		ps := &ns.procs[slot]
		entry, _ := ps.mailbox.Pop()
		ns.backlog--
		ns.activations++
		ps.proc.Receive(&ns.ctxs[slot], entry.src, entry.payload)
	}
}

// ActivationsPerNode returns the number of process activations performed by
// each physical node over the run so far.
func (c *Cluster) ActivationsPerNode() []int64 {
	out := make([]int64, len(c.nodes))
	for i := range c.nodes {
		out[i] = c.nodes[i].activations
	}
	return out
}

// pickSlot selects the next process slot with waiting work, round-robin
// from the slot after the last one activated. Tick calls it only while the
// backlog is positive, so some mailbox has an entry.
func (ns *nodeScheduler) pickSlot() int {
	n := len(ns.procs)
	for i := 0; i < n; i++ {
		slot := (ns.cursor + i) % n
		if ns.procs[slot].mailbox.Len() > 0 {
			ns.cursor = (slot + 1) % n
			return slot
		}
	}
	panic(fmt.Sprintf("sched: node %d has a backlog of %d but empty mailboxes", ns.node, ns.backlog))
}

// PendingWork reports buffered mailbox entries so the simulator does not
// declare quiescence while activations remain.
func (ns *nodeScheduler) PendingWork() bool { return ns.backlog > 0 }

// Context is the per-process view of the cluster.
type Context struct {
	cluster *Cluster
	sched   *nodeScheduler
	simctx  *simulator.Context
	self    PID
}

// Step returns the current simulation step.
func (c *Context) Step() int64 { return c.simctx.Step() }

// Neighbours returns the PIDs adjacent to this process in the virtual
// topology: all slots of neighbouring physical nodes plus sibling slots on
// the same node. The slice must not be modified.
func (c *Context) Neighbours() []PID { return c.cluster.virtual.pidNeighbours(c.self) }

// Send delivers a payload to an adjacent PID. Messages to sibling slots on
// the same node bypass the interconnect but still cost one step of latency
// and one activation.
func (c *Context) Send(dst PID, payload any) error {
	dstNode, dstSlot := c.cluster.split(dst)
	if dstNode < 0 || dstNode >= len(c.cluster.nodes) {
		return fmt.Errorf("sched: send to out-of-range pid %d", dst)
	}
	if mesh.NodeID(dstNode) == c.sched.node {
		if dst == c.self {
			return fmt.Errorf("sched: pid %d sent to itself", dst)
		}
		// Local delivery: enqueue directly into the sibling mailbox; it
		// will be activated on a later tick.
		ns := &c.cluster.nodes[dstNode]
		ns.procs[dstSlot].mailbox.Push(inboxEntry{src: c.self, payload: payload})
		ns.backlog++
		return nil
	}
	return c.simctx.Send(mesh.NodeID(dstNode), c.cluster.envelope(envelope{SrcPID: c.self, DstSlot: dstSlot, Payload: payload}))
}

// virtualTopology exposes the PID space as a mesh.Topology so upper layers
// need not distinguish physical cores from process slots.
type virtualTopology struct {
	phys  mesh.Topology
	procs int
	nbrs  [][]PID
	meshN [][]mesh.NodeID // cached as NodeIDs for the Topology interface
}

func newVirtualTopology(phys mesh.Topology, procs int) *virtualTopology {
	v := &virtualTopology{phys: phys, procs: procs}
	size := phys.Size() * procs
	total := 0
	for node := 0; node < phys.Size(); node++ {
		total += procs * (procs - 1 + procs*len(phys.Neighbours(mesh.NodeID(node))))
	}
	// Both kinds of list are segments of one slab each.
	pids := make([]PID, 0, total)
	ids := make([]mesh.NodeID, total)
	v.nbrs = make([][]PID, size)
	v.meshN = make([][]mesh.NodeID, size)
	for pid := 0; pid < size; pid++ {
		node := pid / procs
		slot := pid % procs
		start := len(pids)
		// Sibling slots on the same physical node.
		for s := 0; s < procs; s++ {
			if s != slot {
				pids = append(pids, PID(node*procs+s))
			}
		}
		// All slots of physically adjacent nodes.
		for _, m := range phys.Neighbours(mesh.NodeID(node)) {
			for s := 0; s < procs; s++ {
				pids = append(pids, PID(int(m)*procs+s))
			}
		}
		end := len(pids)
		v.nbrs[pid] = pids[start:end:end]
		for i, p := range v.nbrs[pid] {
			ids[start+i] = mesh.NodeID(p)
		}
		v.meshN[pid] = ids[start:end:end]
	}
	return v
}

func (v *virtualTopology) pidNeighbours(p PID) []PID { return v.nbrs[int(p)] }

func (v *virtualTopology) Name() string {
	return fmt.Sprintf("%s*%d", v.phys.Name(), v.procs)
}

func (v *virtualTopology) Size() int { return v.phys.Size() * v.procs }

func (v *virtualTopology) Degree(n mesh.NodeID) int { return len(v.nbrs[int(n)]) }

func (v *virtualTopology) Neighbours(n mesh.NodeID) []mesh.NodeID { return v.meshN[int(n)] }

func (v *virtualTopology) Coords(n mesh.NodeID) []int {
	node := int(n) / v.procs
	slot := int(n) % v.procs
	return append(append([]int{}, v.phys.Coords(mesh.NodeID(node))...), slot)
}

func (v *virtualTopology) Dims() []int {
	return append(append([]int{}, v.phys.Dims()...), v.procs)
}

func (v *virtualTopology) Distance(a, b mesh.NodeID) int {
	na := mesh.NodeID(int(a) / v.procs)
	nb := mesh.NodeID(int(b) / v.procs)
	d := v.phys.Distance(na, nb)
	if d == 0 && a != b {
		return 1 // sibling slots are one (local) hop apart
	}
	return d
}
