// Package recursion implements layer 4 of the model of Tarawneh et al.
// (P2S2 2017): programming-model conversion. It lets users write plain
// recursive functions — fork-join style, in the spirit of the paper's
// Listing 3 and of Cilk — and executes them on the ticketed message-passing
// interface of layer 3, delegating every subcall to another node chosen by
// the mapping layer.
//
// The paper implements this layer with a coroutine yield operator: a
// recursive function yields Call objects to request subcalls, yields Sync to
// collect their results, and may yield a validation function together with
// several Calls to request a non-deterministic choice (first valid result
// wins). Here each in-flight call frame is an iter.Pull coroutine: Call, Sync
// and Choose yield a frameOp to the node's layer-4 runtime, which resumes the
// frame with next() once the answer is ready. Control passes directly between
// the two — exactly one of {runtime, frame} executes at any instant — so
// simulation remains deterministic, and a frame whose task returns is gone
// by the time next() reports it.
//
// Call records work as in the paper's Figure 3: each subcall's ticket is
// stored alongside an empty result slot; replies fill slots; Sync blocks
// until the current group is complete; a choice group resumes on the first
// valid result and ignores the rest.
package recursion

import (
	"fmt"
	"iter"

	"hypersolve/internal/mapping"
	"hypersolve/internal/sched"
)

// Value is the type carried through calls and results. Because the machine
// is simulated in one address space, values are passed by reference; tasks
// must treat received values as immutable (copy before mutating), as they
// would have to serialise them on real hardware.
type Value = any

// Task is a user-level recursive function: it receives a Frame for issuing
// subcalls and returns its result. Every invocation — root or subcall — runs
// the same Task, mirroring the single recursive function of the paper's
// application layer.
type Task func(f *Frame, arg Value) Value

// HintedCall pairs a subcall argument with a cross-layer mapping hint
// (paper Section III-B3); zero hint means "no information".
type HintedCall struct {
	Arg  Value
	Hint float64
}

// frameOp is what a frame yields to the runtime.
type frameOp struct {
	kind  opKind
	arg   Value
	hint  float64
	valid func(Value) bool
	calls []HintedCall
}

type opKind int

const (
	opCall opKind = iota
	opSync
	opChoose
)

// resumeMsg is what the runtime hands a frame before resuming it.
type resumeMsg struct {
	values []Value // Sync results, in issue order
	value  Value   // Choose result
	ok     bool    // Choose validity
}

// frameAborted is the panic value used to unwind frames when a simulation
// is abandoned before quiescence.
type frameAbortedError struct{}

func (frameAbortedError) Error() string { return "recursion: frame aborted" }

// Frame is the user-facing handle for one in-flight invocation.
type Frame struct {
	node sched.PID
	// yield suspends the task until the runtime resumes it; false means
	// the frame was stopped and must unwind.
	yield func(frameOp) bool
	// next resumes the task until its next yield (ok) or its return
	// (!ok); stop unwinds a suspended task. Both are the runtime's side.
	next func() (frameOp, bool)
	stop func()
	// resume is written by the runtime before next() and read by the task
	// after yield returns; result is written by the task as it returns.
	resume resumeMsg
	result Value
}

// suspend yields op to the runtime and returns what it resumed the frame
// with.
func (f *Frame) suspend(op frameOp) resumeMsg {
	if !f.yield(op) {
		panic(frameAbortedError{})
	}
	return f.resume
}

// Node returns the PID of the process evaluating this frame, for
// diagnostics and tests; tasks should not use it to direct work.
func (f *Frame) Node() sched.PID { return f.node }

// Call requests the asynchronous evaluation of the task on arg by another
// node (the paper's "yield Call(args)"). Results are collected by the next
// Sync.
func (f *Frame) Call(arg Value) { f.CallHinted(arg, 0) }

// CallHinted is Call with a cross-layer mapping hint attached.
func (f *Frame) CallHinted(arg Value, hint float64) {
	f.suspend(frameOp{kind: opCall, arg: arg, hint: hint})
}

// Sync blocks until every call issued since the previous Sync has returned,
// then yields their results in issue order (the paper's "yield Sync()").
func (f *Frame) Sync() []Value {
	return f.suspend(frameOp{kind: opSync}).values
}

// CallSync evaluates a single subcall and waits for its result: shorthand
// for Call followed by Sync.
func (f *Frame) CallSync(arg Value) Value {
	f.Call(arg)
	vs := f.Sync()
	return vs[len(vs)-1]
}

// Choose requests the concurrent evaluation of several subcalls and resumes
// as soon as one result satisfies valid, returning (result, true); the
// remaining evaluations are ignored when they arrive. If all evaluations
// return without any satisfying valid, Choose returns (nil, false). This is
// the paper's non-deterministic choice: "yield [is_valid, Call(a), Call(b)]".
func (f *Frame) Choose(valid func(Value) bool, args ...Value) (Value, bool) {
	calls := make([]HintedCall, len(args))
	for i, a := range args {
		calls[i] = HintedCall{Arg: a}
	}
	return f.ChooseHinted(valid, calls...)
}

// ChooseHinted is Choose with per-call mapping hints.
func (f *Frame) ChooseHinted(valid func(Value) bool, calls ...HintedCall) (Value, bool) {
	if len(calls) == 0 {
		return nil, false
	}
	if valid == nil {
		valid = func(Value) bool { return true }
	}
	r := f.suspend(frameOp{kind: opChoose, valid: valid, calls: calls})
	return r.value, r.ok
}

// groupKind distinguishes gather (Sync) groups from choice groups.
type groupKind int

const (
	gatherGroup groupKind = iota
	choiceGroup
)

// callGroup is one call record of the paper's Figure 3: a set of tickets
// with result slots.
type callGroup struct {
	kind      groupKind
	values    []Value
	issued    int // slots assigned so far (choice groups)
	remaining int
	valid     func(Value) bool
	resolved  bool
}

// frameState is the runtime-side bookkeeping for one frame.
type frameState struct {
	id           int
	frame        *Frame
	parentTicket mapping.Ticket
	isRoot       bool
	open         *callGroup // gather group accumulating Calls
	parked       *callGroup // group the frame is blocked on, nil if running/done
	outstanding  int        // pending tickets across all live groups
	dead         bool       // frame returned; absorb late choice replies
	// tickets lists the frame's issued subcall tickets (pruned lazily);
	// used to cancel the speculative subtree when the frame is killed.
	tickets []mapping.Ticket
}

// record routes a reply ticket back to its frame, group and slot.
type record struct {
	frame *frameState
	group *callGroup
	slot  int
}

// Options configures optional recursion-layer behaviours.
type Options struct {
	// CancelSpeculative kills losing branches when a Choose resolves: the
	// runtime sends layer-3 Cancel messages for the group's outstanding
	// tickets, and receivers recursively abandon those subtrees. Off by
	// default — the paper's semantics let speculative work run to
	// completion and merely ignore its results (Section IV-C).
	CancelSpeculative bool
}

// Runtime is the per-process layer-4 engine. It implements mapping.App.
type Runtime struct {
	task   Task
	opts   Options
	self   sched.PID
	frames map[int]*frameState
	// byParent indexes live non-root frames by the work ticket that
	// spawned them, for cancellation.
	byParent map[mapping.Ticket]*frameState
	records  map[mapping.Ticket]record
	nextID   int

	framesStarted   int64
	framesCancelled int64
	rootResult      Value
	rootDone        bool
}

var _ mapping.App = (*Runtime)(nil)

// AppFactory adapts a Task into a layer-3 application factory, installing
// one layer-4 runtime per process.
func AppFactory(task Task) mapping.AppFactory {
	return AppFactoryOpts(task, Options{})
}

// AppFactoryOpts is AppFactory with explicit runtime options.
func AppFactoryOpts(task Task, opts Options) mapping.AppFactory {
	return func(p sched.PID) mapping.App {
		return &Runtime{
			task:     task,
			opts:     opts,
			self:     p,
			frames:   make(map[int]*frameState),
			byParent: make(map[mapping.Ticket]*frameState),
			records:  make(map[mapping.Ticket]record),
		}
	}
}

// Init implements mapping.App.
func (rt *Runtime) Init(ctx *mapping.Context) {}

// Recv implements mapping.App: triggers and work start frames; replies fill
// call records and resume parked frames.
func (rt *Runtime) Recv(ctx *mapping.Context, ticket mapping.Ticket, kind mapping.Kind, payload any) {
	switch kind {
	case mapping.Trigger:
		rt.startFrame(ctx, payload, mapping.NoTicket, true)
	case mapping.Work:
		rt.startFrame(ctx, payload, ticket, false)
	case mapping.Reply:
		rt.handleReply(ctx, ticket, payload)
	case mapping.Cancel:
		rt.handleCancel(ctx, ticket)
	}
}

// FramesStarted returns how many task invocations this process evaluated —
// a layer-4 view of node activity.
func (rt *Runtime) FramesStarted() int64 { return rt.framesStarted }

// RootResult returns the result of the root invocation, if this process
// hosted the root frame and it has completed.
func (rt *Runtime) RootResult() (Value, bool) { return rt.rootResult, rt.rootDone }

// LiveFrames returns the number of unfinished frames, for leak diagnostics.
func (rt *Runtime) LiveFrames() int {
	n := 0
	for _, f := range rt.frames {
		if !f.dead {
			n++
		}
	}
	return n
}

// startFrame launches a task invocation as a coroutine and drives it to its
// first park point.
func (rt *Runtime) startFrame(ctx *mapping.Context, arg Value, parent mapping.Ticket, isRoot bool) {
	rt.nextID++
	rt.framesStarted++
	f := &frameState{
		id:           rt.nextID,
		parentTicket: parent,
		isRoot:       isRoot,
		frame:        &Frame{node: rt.self},
	}
	rt.frames[f.id] = f
	if !isRoot {
		rt.byParent[parent] = f
	}
	f.frame.next, f.frame.stop = iter.Pull(taskSeq(rt.task, f.frame, arg))
	rt.drive(ctx, f)
}

// taskSeq is the frame's coroutine body: the sequence of ops the task yields.
// The sequence ends when the task returns (its result is then on the frame)
// or when the frame is stopped, which unwinds the task silently. Any other
// panic of the task propagates to whoever resumed the frame.
func taskSeq(task Task, frame *Frame, arg Value) iter.Seq[frameOp] {
	return func(yield func(frameOp) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(frameAbortedError); !ok {
					panic(r)
				}
			}
		}()
		frame.yield = yield
		frame.result = task(frame, arg)
	}
}

// resumeWith hands r to a parked frame and runs it to its next park point.
func (rt *Runtime) resumeWith(ctx *mapping.Context, f *frameState, r resumeMsg) {
	f.parked = nil
	f.frame.resume = r
	rt.drive(ctx, f)
}

// drive runs the runtime side of the yield handshake until the frame parks
// or finishes.
func (rt *Runtime) drive(ctx *mapping.Context, f *frameState) {
	for {
		op, ok := f.frame.next()
		if !ok {
			rt.finishFrame(ctx, f, f.frame.result)
			return
		}
		switch op.kind {
		case opCall:
			rt.issueCall(ctx, f, op.arg, op.hint)
			f.frame.resume = resumeMsg{}

		case opSync:
			g := f.open
			f.open = nil
			if g == nil {
				f.frame.resume = resumeMsg{}
				continue
			}
			if g.remaining == 0 {
				f.frame.resume = resumeMsg{values: g.values}
				continue
			}
			f.parked = g
			return

		case opChoose:
			g := &callGroup{
				kind:      choiceGroup,
				values:    make([]Value, len(op.calls)),
				remaining: len(op.calls),
				valid:     op.valid,
			}
			for _, c := range op.calls {
				rt.issueInto(ctx, f, g, c.Arg, c.Hint)
			}
			f.parked = g
			return

		default:
			panic(fmt.Sprintf("recursion: unknown frame op %d", op.kind))
		}
	}
}

// issueCall adds a subcall to the frame's open gather group.
func (rt *Runtime) issueCall(ctx *mapping.Context, f *frameState, arg Value, hint float64) {
	if f.open == nil {
		f.open = &callGroup{kind: gatherGroup}
	}
	g := f.open
	g.values = append(g.values, nil)
	g.remaining++
	rt.sendWork(ctx, f, g, len(g.values)-1, arg, hint)
}

// issueInto adds a subcall to an explicit (choice) group; slots are
// assigned in issue order.
func (rt *Runtime) issueInto(ctx *mapping.Context, f *frameState, g *callGroup, arg Value, hint float64) {
	slot := g.issued
	g.issued++
	rt.sendWork(ctx, f, g, slot, arg, hint)
}

// sendWork maps one subcall through layer 3 and records the ticket.
func (rt *Runtime) sendWork(ctx *mapping.Context, f *frameState, g *callGroup, slot int, arg Value, hint float64) {
	ticket, err := ctx.SendWork(arg, hint)
	if err != nil {
		panic(fmt.Sprintf("recursion: pid %d failed to map subcall: %v", rt.self, err))
	}
	rt.records[ticket] = record{frame: f, group: g, slot: slot}
	f.tickets = append(f.tickets, ticket)
	f.outstanding++
}

// finishFrame replies to the parent (or records the root result) and
// retires the frame, keeping a tombstone while choice replies remain.
func (rt *Runtime) finishFrame(ctx *mapping.Context, f *frameState, result Value) {
	if f.isRoot {
		rt.rootResult = result
		rt.rootDone = true
	} else {
		if err := ctx.Reply(f.parentTicket, result); err != nil {
			panic(fmt.Sprintf("recursion: pid %d failed to reply: %v", rt.self, err))
		}
	}
	f.dead = true
	f.parked = nil
	if !f.isRoot {
		delete(rt.byParent, f.parentTicket)
	}
	if f.outstanding == 0 {
		delete(rt.frames, f.id)
	}
}

// handleReply fills a call record and resumes the frame when its parked
// group completes or resolves.
func (rt *Runtime) handleReply(ctx *mapping.Context, ticket mapping.Ticket, payload any) {
	rec, ok := rt.records[ticket]
	if !ok {
		if rt.opts.CancelSpeculative {
			// The reply raced with a Cancel already sent for this ticket;
			// drop it.
			return
		}
		panic(fmt.Sprintf("recursion: pid %d got reply for unknown ticket %d", rt.self, ticket))
	}
	delete(rt.records, ticket)
	f, g := rec.frame, rec.group
	f.outstanding--
	g.remaining--
	g.values[rec.slot] = payload

	if f.dead {
		if f.outstanding == 0 {
			delete(rt.frames, f.id)
		}
		return
	}

	switch g.kind {
	case gatherGroup:
		if f.parked == g && g.remaining == 0 {
			rt.resumeWith(ctx, f, resumeMsg{values: g.values})
		}
	case choiceGroup:
		if g.resolved {
			return // a valid result already won; ignore the rest
		}
		if g.valid(payload) {
			g.resolved = true
			if f.parked != g {
				panic("recursion: choice group resolved while frame not parked on it")
			}
			if rt.opts.CancelSpeculative {
				rt.cancelFrameTickets(ctx, f, g)
			}
			rt.resumeWith(ctx, f, resumeMsg{value: payload, ok: true})
			return
		}
		if g.remaining == 0 {
			// All evaluations returned, none valid: yield null (paper
			// Section IV-C).
			rt.resumeWith(ctx, f, resumeMsg{})
		}
	}
}

// cancelFrameTickets revokes the frame's outstanding subcalls belonging to
// the given group (or all groups when g is nil): layer-3 Cancel messages go
// out, and the local records are dropped so late replies are ignored.
func (rt *Runtime) cancelFrameTickets(ctx *mapping.Context, f *frameState, g *callGroup) {
	kept := f.tickets[:0]
	for _, tk := range f.tickets {
		rec, live := rt.records[tk]
		if !live || rec.frame != f {
			continue // already answered
		}
		if g != nil && rec.group != g {
			kept = append(kept, tk)
			continue // belongs to another (still wanted) group
		}
		delete(rt.records, tk)
		f.outstanding--
		rec.group.remaining--
		if err := ctx.Cancel(tk); err != nil {
			panic(fmt.Sprintf("recursion: pid %d failed to cancel ticket %d: %v", rt.self, tk, err))
		}
	}
	f.tickets = kept
}

// handleCancel abandons the frame spawned by the given work ticket: the
// frame's coroutine is unwound and its own outstanding subcalls are
// cancelled recursively across the mesh.
func (rt *Runtime) handleCancel(ctx *mapping.Context, ticket mapping.Ticket) {
	f, ok := rt.byParent[ticket]
	if !ok {
		return // frame already finished (its reply may be in flight)
	}
	rt.killFrame(ctx, f)
}

// killFrame retires a live frame without producing a result.
func (rt *Runtime) killFrame(ctx *mapping.Context, f *frameState) {
	rt.framesCancelled++
	rt.cancelFrameTickets(ctx, f, nil)
	if f.parked != nil {
		f.parked = nil
		f.frame.stop()
	}
	f.dead = true
	if !f.isRoot {
		delete(rt.byParent, f.parentTicket)
	}
	delete(rt.frames, f.id)
}

// FramesCancelled returns how many frames this process abandoned due to
// speculative cancellation.
func (rt *Runtime) FramesCancelled() int64 { return rt.framesCancelled }

// Abort unwinds every parked frame so its coroutine exits. It must only be
// called after the simulation loop has stopped (frames are then either
// parked or finished); the machine layer uses it when a run is cut short —
// MaxSteps exceeded, context cancelled, or a task panicked.
func (rt *Runtime) Abort() {
	for id, f := range rt.frames {
		if !f.dead && f.parked != nil {
			f.parked = nil
			f.frame.stop()
		}
		delete(rt.frames, id)
	}
	rt.records = make(map[mapping.Ticket]record)
}
