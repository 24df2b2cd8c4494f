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
// Delivery semantics model the hardware constraint: a physical core performs
// at most Config.ActivationsPerStep process activations per simulation step
// regardless of how many messages arrived, with a round-robin scheduling
// policy choosing among process slots that have waiting messages (the
// "round-robin" layer-2 implementation of the paper's Figure 2).
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

// Policy selects the node-level scheduling discipline.
type Policy int

const (
	// RoundRobin rotates fairly among process slots with pending messages.
	RoundRobin Policy = iota
	// FIFO activates processes strictly in message arrival order.
	FIFO
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config assembles a scheduled cluster on top of a physical topology.
type Config struct {
	// Physical is the hardware interconnect.
	Physical mesh.Topology
	// ProcsPerNode is the number of process slots per core. Values below 1
	// default to 1.
	ProcsPerNode int
	// ActivationsPerStep bounds process activations per core per step.
	// Zero (the default) means unbounded: every message delivered in a
	// step is processed within that step, matching the paper's model in
	// which computation is free and the network is the bottleneck.
	// Positive values model compute-bound cores (an ablation axis).
	ActivationsPerStep int
	// Policy is the scheduling discipline (default RoundRobin).
	Policy Policy
	// Factory builds each process.
	Factory ProcessFactory
	// Sim carries layer-1 options through to the simulator.
	Sim simulator.Config
}

// Cluster is a simulated machine with layer-2 scheduling installed on every
// node. It owns the underlying layer-1 simulator.
type Cluster struct {
	sim     *simulator.Simulator
	virtual *virtualTopology
	procs   int
	nodes   []*nodeScheduler
	// free holds envelopes their receivers have unpacked, for the next send.
	free []*envelope
}

// New builds the cluster: a virtual topology of PIDs and one nodeScheduler
// handler per physical node.
func New(cfg Config) (*Cluster, error) {
	if cfg.Physical == nil {
		return nil, fmt.Errorf("sched: Config.Physical is nil")
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("sched: Config.Factory is nil")
	}
	if cfg.ProcsPerNode < 1 {
		cfg.ProcsPerNode = 1
	}
	c := &Cluster{
		virtual: newVirtualTopology(cfg.Physical, cfg.ProcsPerNode),
		procs:   cfg.ProcsPerNode,
		nodes:   make([]*nodeScheduler, cfg.Physical.Size()),
	}
	simCfg := cfg.Sim
	simCfg.Topology = cfg.Physical
	// Under per-node queues the inbox must feed the core at least as fast
	// as its activation budget, or layer 1 throttles layer 2.
	if simCfg.QueueModel == simulator.NodeQueues && simCfg.DeliverPerStep < cfg.ActivationsPerStep {
		simCfg.DeliverPerStep = cfg.ActivationsPerStep
	}
	simCfg.Factory = func(n mesh.NodeID) simulator.Handler {
		ns := newNodeScheduler(c, n, cfg)
		c.nodes[int(n)] = ns
		return ns
	}
	sim, err := simulator.New(simCfg)
	if err != nil {
		return nil, err
	}
	c.sim = sim
	return c, nil
}

// Virtual returns the PID-level topology the upper layers schedule over.
func (c *Cluster) Virtual() mesh.Topology { return c.virtual }

// Process returns the process instance behind a PID, letting callers extract
// results after a run.
func (c *Cluster) Process(p PID) Process {
	node, slot := c.split(p)
	return c.nodes[node].procs[slot].proc
}

// Inject queues an external trigger message for a PID before the run starts.
func (c *Cluster) Inject(dst PID, payload any) error {
	node, slot := c.split(dst)
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("sched: inject to out-of-range pid %d", dst)
	}
	return c.sim.Inject(mesh.NodeID(node), c.envelope(envelope{SrcPID: NonePID, DstSlot: slot, Payload: payload}))
}

// Run executes the simulation to quiescence and returns layer-1 statistics.
func (c *Cluster) Run() simulator.Stats { return c.sim.Run() }

// RunContext is Run with cooperative cancellation; see
// simulator.RunContext for the slice-granular polling contract.
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
// subject to the per-step activation budget.
type nodeScheduler struct {
	cluster *Cluster
	node    mesh.NodeID
	cfg     Config
	procs   []*procState
	// ctxs holds one reusable per-slot Context, built in Init so that
	// activations do not allocate.
	ctxs    []Context
	cursor  int                 // round-robin position
	fifoQ   ringbuf.Ring[int32] // slot activation order for the FIFO policy
	backlog int                 // total queued mailbox entries
	// activations counts process activations on this node, the layer-2
	// equivalent of the paper's per-node "node activity" metric (it also
	// covers intra-node messages that never cross the interconnect).
	activations int64
}

func newNodeScheduler(c *Cluster, node mesh.NodeID, cfg Config) *nodeScheduler {
	ns := &nodeScheduler{cluster: c, node: node, cfg: cfg}
	ns.procs = make([]*procState, cfg.ProcsPerNode)
	for slot := 0; slot < cfg.ProcsPerNode; slot++ {
		pid := c.PIDOf(node, slot)
		proc := cfg.Factory(pid)
		ns.procs[slot] = &procState{proc: proc}
	}
	return ns
}

// Init builds the reusable per-slot contexts (the layer-1 context pointer is
// stable for the whole run) and initialises every process slot.
func (ns *nodeScheduler) Init(ctx *simulator.Context) {
	ns.ctxs = make([]Context, len(ns.procs))
	for slot, ps := range ns.procs {
		ns.ctxs[slot] = Context{cluster: ns.cluster, sched: ns, simctx: ctx, self: ns.cluster.PIDOf(ns.node, slot)}
		ps.proc.Init(&ns.ctxs[slot])
	}
}

// Receive buffers the arriving envelope into the target slot's mailbox.
// Activation happens in Tick, bounded by the activation budget.
func (ns *nodeScheduler) Receive(ctx *simulator.Context, src mesh.NodeID, payload simulator.Payload) {
	env, ok := payload.(*envelope)
	if !ok {
		panic(fmt.Sprintf("sched: node %d received non-envelope payload %T", ns.node, payload))
	}
	if env.DstSlot < 0 || env.DstSlot >= len(ns.procs) {
		panic(fmt.Sprintf("sched: node %d received envelope for bad slot %d", ns.node, env.DstSlot))
	}
	ns.procs[env.DstSlot].mailbox.Push(inboxEntry{src: env.SrcPID, payload: env.Payload})
	ns.fifoQ.Push(int32(env.DstSlot))
	ns.backlog++
	*env = envelope{DstSlot: -1}
	ns.cluster.free = append(ns.cluster.free, env)
}

// Tick performs the step's process activations: all currently buffered
// entries when ActivationsPerStep is zero (a snapshot, so entries enqueued
// during this tick wait for the next step), or at most that many otherwise.
func (ns *nodeScheduler) Tick(ctx *simulator.Context) {
	budget := ns.cfg.ActivationsPerStep
	if budget <= 0 {
		budget = ns.backlog
	}
	for k := 0; k < budget && ns.backlog > 0; k++ {
		slot := ns.pickSlot()
		if slot < 0 {
			break
		}
		ps := ns.procs[slot]
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
	for i, ns := range c.nodes {
		out[i] = ns.activations
	}
	return out
}

// pickSlot selects the next process slot to activate under the configured
// policy, returning -1 when no mailbox has work.
func (ns *nodeScheduler) pickSlot() int {
	switch ns.cfg.Policy {
	case FIFO:
		for {
			slot, ok := ns.fifoQ.Pop()
			if !ok {
				return -1
			}
			if ns.procs[slot].mailbox.Len() > 0 {
				return int(slot)
			}
		}
	default: // RoundRobin
		n := len(ns.procs)
		for i := 0; i < n; i++ {
			slot := (ns.cursor + i) % n
			if ns.procs[slot].mailbox.Len() > 0 {
				ns.cursor = (slot + 1) % n
				return slot
			}
		}
		return -1
	}
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

// Self returns the process's PID.
func (c *Context) Self() PID { return c.self }

// Node returns the physical node hosting the process.
func (c *Context) Node() mesh.NodeID { return c.sched.node }

// Slot returns the process slot index within its node.
func (c *Context) Slot() int { return int(c.self) % c.cluster.procs }

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
		ns := c.cluster.nodes[dstNode]
		ns.procs[dstSlot].mailbox.Push(inboxEntry{src: c.self, payload: payload})
		ns.fifoQ.Push(int32(dstSlot))
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
	v.nbrs = make([][]PID, size)
	v.meshN = make([][]mesh.NodeID, size)
	for pid := 0; pid < size; pid++ {
		node := pid / procs
		slot := pid % procs
		var out []PID
		// Sibling slots on the same physical node.
		for s := 0; s < procs; s++ {
			if s != slot {
				out = append(out, PID(node*procs+s))
			}
		}
		// All slots of physically adjacent nodes.
		for _, m := range phys.Neighbours(mesh.NodeID(node)) {
			for s := 0; s < procs; s++ {
				out = append(out, PID(int(m)*procs+s))
			}
		}
		v.nbrs[pid] = out
		ids := make([]mesh.NodeID, len(out))
		for i, p := range out {
			ids[i] = mesh.NodeID(p)
		}
		v.meshN[pid] = ids
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
