package sched

import "hypersolve/internal/mesh"

// Process returns the process instance behind a PID, so that a test can read
// what it recorded after a run.
func (c *Cluster) Process(p PID) Process {
	node, slot := c.split(p)
	return c.nodes[node].procs[slot].proc
}

// Self returns the process's PID.
func (c *Context) Self() PID { return c.self }

// Node returns the physical node hosting the process.
func (c *Context) Node() mesh.NodeID { return c.sched.node }

// Slot returns the process slot index within its node.
func (c *Context) Slot() int { return int(c.self) % c.cluster.procs }
