package simulator

import "hypersolve/internal/mesh"

// Node returns the node this context belongs to.
func (c *Context) Node() mesh.NodeID { return c.node }
