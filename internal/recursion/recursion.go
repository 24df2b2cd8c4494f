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
// wins). Here a call frame runs on a worker: one of a machine-wide pool of
// iter.Pull coroutines, each looping "run the assigned frame's task, yield
// done". Call only records the request; Sync, Choose and the task's return
// yield to the node's layer-4 runtime, which then issues the recorded calls
// through layer 3 in request order, on its own stack, and resumes the worker
// with next() once the answer is ready. Control passes directly between the
// two — exactly one of {runtime, task} executes at any instant — so
// simulation remains deterministic. A frame costs two coroutine switches
// plus one per park and, once the pool is warm, no coroutine of its own; the
// pool ends its idle workers whenever the machine has no live frame left, so
// nothing outlives a run.
//
// Call records work as in the paper's Figure 3: each subcall's ticket is
// stored alongside an empty result slot; replies fill slots; Sync blocks
// until the current group is complete; a choice group resumes on the first
// valid result and ignores the rest. As in the paper (Section IV-C), the
// losing evaluations run to completion and their replies are absorbed.
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

// opKind is what a worker yields to the runtime: why its task stopped.
type opKind int

const (
	opDone   opKind = iota // the task returned; its result is on the worker
	opSync                 // the task waits for its gather group
	opChoose               // the task waits for the choice on the worker
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

// worker is one pooled coroutine together with the mailbox through which its
// task and the runtime talk. Only one of the two runs at a time, so the
// fields need no synchronisation: the task side writes calls, choice, valid
// and result; the runtime side writes frame, arg and resume.
type worker struct {
	task Task
	// yield suspends the task until the runtime resumes it; false means the
	// worker was stopped and must unwind.
	yield func(opKind) bool
	// next resumes the task until its next yield; stop unwinds a suspended
	// task and ends the coroutine. Both are the runtime's side.
	next func() (opKind, bool)
	stop func()

	frame  *Frame
	arg    Value
	result Value
	resume resumeMsg
	// calls buffers the task's Calls until its next yield; choice and valid
	// are the pending Choose. The buffers are reused from frame to frame.
	calls  []HintedCall
	choice []HintedCall
	valid  func(Value) bool
}

// run is the worker's coroutine body. The loop ends when the worker is
// stopped, which unwinds the task silently; any other panic of the task
// propagates to whoever resumed the worker, and the coroutine is gone.
func (w *worker) run(yield func(opKind) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(frameAbortedError); !ok {
				panic(r)
			}
		}
	}()
	w.yield = yield
	for {
		w.result = w.task(w.frame, w.arg)
		if !yield(opDone) {
			return
		}
	}
}

// pool is the machine-wide stock of idle workers and retired frames. A
// machine is single-threaded, so one pool serves all its runtimes.
type pool struct {
	task Task
	idle []*worker
	free []*Frame
	// live counts the frames that hold a worker, machine-wide.
	live int
	// created counts the coroutines ever started, for tests and benchmarks.
	created int
}

// worker returns an idle worker, starting a coroutine only when none is.
func (p *pool) worker() *worker {
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return w
	}
	w := &worker{task: p.task}
	w.next, w.stop = iter.Pull(w.run)
	p.created++
	return w
}

// leave records that a frame gave up its worker. A mapping.Network has no
// Close, so the moment no frame is live every idle coroutine is ended: a
// run that reaches quiescence leaves no goroutine behind.
func (p *pool) leave() {
	p.live--
	if p.live == 0 {
		p.drain()
	}
}

func (p *pool) drain() {
	for i, w := range p.idle {
		w.stop()
		p.idle[i] = nil
	}
	p.idle = p.idle[:0]
}

// Frame is the handle through which one invocation of a Task issues its
// subcalls. It is valid only during that invocation: the runtime recycles
// the Frame once the task has returned and its subcalls have been answered,
// so a task must not keep it, or use it from anywhere but its own call
// stack. (The slice Sync returns is the task's to keep.)
type Frame struct {
	w *worker // nil once the task has returned: the frame is dead

	idx          int // position in Runtime.frames
	parentTicket mapping.Ticket
	isRoot       bool
	open         bool       // gather is accumulating Calls
	parked       *callGroup // group the frame is blocked on, nil if running/done
	outstanding  int        // pending tickets across all live groups
	// gather is the frame's Call/Sync record. One suffices: the task cannot
	// open the next round before Sync has seen the last reply of this one.
	gather callGroup
}

// suspend yields op to the runtime and returns what it resumed the frame
// with.
func (f *Frame) suspend(op opKind) resumeMsg {
	w := f.w
	if !w.yield(op) {
		panic(frameAbortedError{})
	}
	return w.resume
}

// Call requests the asynchronous evaluation of the task on arg by another
// node (the paper's "yield Call(args)"). Results are collected by the next
// Sync. The request leaves the node when the task next yields — at Sync, at
// Choose or as it returns — in the order the calls were made.
func (f *Frame) Call(arg Value) { f.CallHinted(arg, 0) }

// CallHinted is Call with a cross-layer mapping hint attached.
func (f *Frame) CallHinted(arg Value, hint float64) {
	f.w.calls = append(f.w.calls, HintedCall{Arg: arg, Hint: hint})
}

// Sync blocks until every call issued since the previous Sync has returned,
// then yields their results in issue order (the paper's "yield Sync()").
func (f *Frame) Sync() []Value {
	if len(f.w.calls) == 0 && !f.open {
		return nil
	}
	return f.suspend(opSync).values
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
	w := f.w
	w.choice = w.choice[:0]
	for _, a := range args {
		w.choice = append(w.choice, HintedCall{Arg: a})
	}
	return f.choose(valid)
}

// ChooseHinted is Choose with per-call mapping hints.
func (f *Frame) ChooseHinted(valid func(Value) bool, calls ...HintedCall) (Value, bool) {
	f.w.choice = append(f.w.choice[:0], calls...)
	return f.choose(valid)
}

// choose parks the task on the choice among the calls on its worker.
func (f *Frame) choose(valid func(Value) bool) (Value, bool) {
	if len(f.w.choice) == 0 {
		return nil, false
	}
	if valid == nil {
		valid = func(Value) bool { return true }
	}
	f.w.valid = valid
	r := f.suspend(opChoose)
	return r.value, r.ok
}

// groupKind distinguishes gather (Sync) groups from choice groups.
type groupKind int

const (
	gatherGroup groupKind = iota
	choiceGroup
)

// callGroup is one call record of the paper's Figure 3: a set of tickets
// with, for a gather group, their result slots.
type callGroup struct {
	kind groupKind
	// values is allocated when the group's calls are issued and never
	// reused: the task may keep, or return, what Sync gave it.
	values    []Value
	remaining int
	valid     func(Value) bool
	resolved  bool
}

// record routes a reply ticket back to its frame, group and slot.
type record struct {
	frame *Frame
	group *callGroup
	slot  int
}

// Runtime is the per-process layer-4 engine. It implements mapping.App.
type Runtime struct {
	pool *pool
	self sched.PID
	// frames holds the unretired frames in no particular order (a retiring
	// frame swaps with the last).
	frames []*Frame
	// records is made on the first subcall, so a process that never
	// issues one allocates no map.
	records map[mapping.Ticket]record

	framesStarted int64
	rootResult    Value
	rootDone      bool
}

var _ mapping.App = (*Runtime)(nil)

// AppFactory adapts a Task into a layer-3 application factory, installing
// one layer-4 runtime per process. The factory owns the worker pool its
// runtimes share, so it serves one machine at a time: build a factory per
// machine, as core.New does.
func AppFactory(task Task) mapping.AppFactory {
	p := &pool{task: task}
	// Runtimes are carved out of slabs that double in size, so a machine
	// of n processes makes about log2(n/16)+1 of them.
	var slab []Runtime
	next := 16
	return func(pid sched.PID) mapping.App {
		if len(slab) == 0 {
			slab, next = make([]Runtime, next), 2*next
		}
		rt := &slab[0]
		slab = slab[1:]
		*rt = Runtime{pool: p, self: pid}
		return rt
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
	}
}

// FramesStarted returns how many task invocations this process evaluated —
// a layer-4 view of node activity.
func (rt *Runtime) FramesStarted() int64 { return rt.framesStarted }

// RootResult returns the result of the root invocation, if this process
// hosted the root frame and it has completed.
func (rt *Runtime) RootResult() (Value, bool) { return rt.rootResult, rt.rootDone }

// startFrame assigns a task invocation to a worker and drives it to its
// first park point.
func (rt *Runtime) startFrame(ctx *mapping.Context, arg Value, parent mapping.Ticket, isRoot bool) {
	rt.framesStarted++
	p := rt.pool
	var f *Frame
	if n := len(p.free); n > 0 {
		f, p.free = p.free[n-1], p.free[:n-1]
	} else {
		f = new(Frame)
	}
	w := p.worker()
	p.live++
	f.w, f.idx, f.parentTicket, f.isRoot = w, len(rt.frames), parent, isRoot
	rt.frames = append(rt.frames, f)
	w.frame, w.arg = f, arg
	rt.drive(ctx, f)
}

// resumeWith hands r to a parked frame and runs it to its next park point.
func (rt *Runtime) resumeWith(ctx *mapping.Context, f *Frame, r resumeMsg) {
	f.parked = nil
	f.w.resume = r
	rt.drive(ctx, f)
}

// drive runs the runtime side of the yield handshake until the frame parks
// or finishes. Whatever the task yielded for, the Calls it buffered since
// its last yield go out first, in request order.
func (rt *Runtime) drive(ctx *mapping.Context, f *Frame) {
	w := f.w
	for {
		op, ok := w.next()
		if !ok {
			panic("recursion: worker coroutine ended under a running frame")
		}
		rt.issueCalls(ctx, f, w)
		switch op {
		case opDone:
			rt.finishFrame(ctx, f, w.result)
			rt.pool.idle = append(rt.pool.idle, w)
			rt.pool.leave()
			return

		case opSync:
			g := &f.gather
			f.open = false
			if g.remaining == 0 {
				// Answered already, while the frame was parked on a choice.
				w.resume = resumeMsg{values: g.values}
				continue
			}
			f.parked = g
			return

		case opChoose:
			g := &callGroup{kind: choiceGroup, remaining: len(w.choice), valid: w.valid}
			for _, c := range w.choice {
				rt.sendWork(ctx, f, g, 0, c.Arg, c.Hint)
			}
			f.parked = g
			return

		default:
			panic(fmt.Sprintf("recursion: unknown frame op %d", op))
		}
	}
}

// issueCalls sends the Calls buffered on the worker into the frame's gather
// group, opening it if need be; slots follow request order.
func (rt *Runtime) issueCalls(ctx *mapping.Context, f *Frame, w *worker) {
	if len(w.calls) == 0 {
		return
	}
	g := &f.gather
	slot := 0
	if !f.open {
		f.open = true
		g.values = make([]Value, len(w.calls))
	} else {
		// Rare: a Choose between two Calls of one round split the group.
		slot = len(g.values)
		g.values = append(g.values, make([]Value, len(w.calls))...)
	}
	g.remaining += len(w.calls)
	for _, c := range w.calls {
		rt.sendWork(ctx, f, g, slot, c.Arg, c.Hint)
		slot++
	}
	w.calls = w.calls[:0]
}

// sendWork maps one subcall through layer 3 and records the ticket.
func (rt *Runtime) sendWork(ctx *mapping.Context, f *Frame, g *callGroup, slot int, arg Value, hint float64) {
	ticket, err := ctx.SendWork(arg, hint)
	if err != nil {
		panic(fmt.Sprintf("recursion: pid %d failed to map subcall: %v", rt.self, err))
	}
	if rt.records == nil {
		rt.records = make(map[mapping.Ticket]record)
	}
	rt.records[ticket] = record{frame: f, group: g, slot: slot}
	f.outstanding++
}

// finishFrame replies to the parent (or records the root result) and marks
// the frame dead; it stays as a tombstone while replies remain.
func (rt *Runtime) finishFrame(ctx *mapping.Context, f *Frame, result Value) {
	if f.isRoot {
		rt.rootResult = result
		rt.rootDone = true
	} else if err := ctx.Reply(f.parentTicket, result); err != nil {
		panic(fmt.Sprintf("recursion: pid %d failed to reply: %v", rt.self, err))
	}
	f.w = nil
	if f.outstanding == 0 {
		rt.retire(f)
	}
}

// retire forgets a dead frame nothing refers to any more and recycles it.
func (rt *Runtime) retire(f *Frame) {
	last := len(rt.frames) - 1
	moved := rt.frames[last]
	rt.frames[f.idx], moved.idx = moved, f.idx
	rt.frames[last] = nil
	rt.frames = rt.frames[:last]
	*f = Frame{}
	rt.pool.free = append(rt.pool.free, f)
}

// handleReply fills a call record and resumes the frame when its parked
// group completes or resolves.
func (rt *Runtime) handleReply(ctx *mapping.Context, ticket mapping.Ticket, payload any) {
	rec, ok := rt.records[ticket]
	if !ok {
		panic(fmt.Sprintf("recursion: pid %d got reply for unknown ticket %d", rt.self, ticket))
	}
	delete(rt.records, ticket)
	f, g := rec.frame, rec.group
	f.outstanding--
	g.remaining--

	if f.w == nil { // dead: absorb the late reply
		if f.outstanding == 0 {
			rt.retire(f)
		}
		return
	}

	switch g.kind {
	case gatherGroup:
		g.values[rec.slot] = payload
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

// Abort unwinds every parked frame so its worker's coroutine exits, and ends
// the pool's idle workers. It must only be called after the simulation loop
// has stopped (frames are then either parked or finished); the machine layer
// uses it when a run is cut short — MaxSteps exceeded, context cancelled, or
// a task panicked (that frame's worker died with the panic).
func (rt *Runtime) Abort() {
	for _, f := range rt.frames {
		if f.w == nil {
			continue
		}
		if f.parked != nil {
			f.w.stop()
		}
		rt.pool.live--
	}
	clear(rt.frames)
	rt.frames = rt.frames[:0]
	clear(rt.records)
	rt.pool.drain()
}
