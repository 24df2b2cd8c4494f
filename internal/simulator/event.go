package simulator

import "context"

// This file is the discrete-event engine, the only loop Run and RunContext
// execute: instead of sweeping every slot on every step, it keeps an
// indexed min-queue of pending (tick, kind, slot) activations and visits
// only slots with due messages, pending handler work or in-flight link
// deliveries. Idle steps between events are skipped wholesale (or replayed
// as pure bookkeeping when a series or observer needs per-step values).
//
// Equivalence with the reference sweep (runSweep) is bit-exact, not
// approximate; the differential harness in this package's difftest_*_test.go
// files proves it per commit. The engine preserves the sweep's order
// everywhere an order is observable:
//
//   - phases within a step run in the sweep's sequence — deliveries, ticks,
//     retransmits, outbox flushes — via the evKind ordering below;
//   - within a phase, slots are visited in ascending index order (the heap
//     orders events by tick, then kind, then slot);
//   - within a slot, link queues are visited in the active-list order the
//     sweep uses, and each queue pops in FIFO arrival order. The active
//     lists themselves evolve identically because both loops perform the
//     same activate/deactivate calls at the same ticks.
//
// A skipped step is one in which the sweep would have visited every slot
// and found nothing: no due message (every queue head's arrival time is the
// slot's next-visit key), no tick work (Ticker handlers pair with Pending,
// whose contract makes an idle Tick a no-op; Ticker-only handlers are
// rescheduled every step), no overdue retransmission (the link layer's
// earliest deadline is tracked as a single global event) and no blocked
// outbox (flush events reschedule themselves while backpressure persists).
// Skipping such a step changes no state, consumes no randomness and emits
// the same per-step bookkeeping, so the two loops cannot diverge on it.

// evKind is the within-step phase of an event, ordered exactly as the
// sweep's runStep phases so the heap replays a step in the same sequence.
type evKind uint8

const (
	evDeliver    evKind = iota // phase 1: pop due messages into handlers
	evTick                     // phase 2: per-step handler ticks
	evRetransmit               // phase 3: link-layer retransmit scan (global)
	evFlush                    // phase 4: outbox flush into link queues
	evKinds
)

// event is one pending activation: visit slot at tick to run phase kind.
type event struct {
	tick int64
	kind evKind
	slot int32
}

func evLess(a, b event) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.slot < b.slot
}

// eventEngine is the indexed min-queue. sched[kind][slot] holds the tick of
// that activation's live heap entry (-1 when none), so each (kind, slot)
// pair keeps at most one live entry: schedule only ever moves a visit
// earlier, and entries superseded that way are dropped lazily on pop.
type eventEngine struct {
	s     *Simulator
	heap  []event
	sched [evKinds][]int64
}

func newEventEngine(s *Simulator) *eventEngine {
	n := len(s.handlers)
	e := &eventEngine{s: s}
	for k := range e.sched {
		size := n
		if evKind(k) == evRetransmit {
			size = 1 // the retransmit scan is machine-global
		}
		ticks := make([]int64, size)
		for i := range ticks {
			ticks[i] = -1
		}
		e.sched[k] = ticks
	}
	return e
}

// schedule requests a visit of (kind, slot) at tick. A later visit already
// scheduled is pulled forward; an earlier or equal one makes this a no-op
// (that visit reschedules the follow-up itself).
func (e *eventEngine) schedule(kind evKind, slot int32, tick int64) {
	if cur := e.sched[kind][slot]; cur >= 0 && cur <= tick {
		return
	}
	e.sched[kind][slot] = tick
	e.heap = append(e.heap, event{tick: tick, kind: kind, slot: slot})
	// Sift up.
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (e *eventEngine) pop() event {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.heap = h[:last]
	h = e.heap
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(h) && evLess(h[l], h[least]) {
			least = l
		}
		if r < len(h) && evLess(h[r], h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

// runEvent is the event loop. The prologue (start) has already initialised
// handlers (whose sends were captured by the send/enqueueRaw hooks) and
// scheduled injected deliveries.
func (s *Simulator) runEvent(ctx context.Context) Stats {
	e := s.eng
	// Seed the tick events: Ticker-only handlers tick every step from step
	// 0; demand tickers (Ticker+Pending) only when Init left buffered work.
	for i, t := range s.tickers {
		if t == nil {
			continue
		}
		if s.pendings[i] == nil || s.pendings[i].PendingWork() {
			e.schedule(evTick, int32(i), 0)
		}
	}

	last := int64(-1) // last step simulated (idle or eventful)
	for len(e.heap) > 0 {
		t := e.heap[0].tick
		if t >= s.cfg.MaxSteps {
			break // due past the horizon: the sweep never reaches it either
		}
		if !s.idleSteps(ctx, last+1, t) || !s.pollStep(ctx, t) {
			return s.stats
		}
		s.step = t
		for len(e.heap) > 0 && e.heap[0].tick == t {
			ev := e.pop()
			if e.sched[ev.kind][ev.slot] != t {
				continue // superseded by an earlier visit: stale entry
			}
			e.sched[ev.kind][ev.slot] = -1
			switch ev.kind {
			case evDeliver:
				s.eventDeliver(int(ev.slot))
			case evTick:
				s.eventTick(int(ev.slot))
			case evRetransmit:
				s.links.retransmit(s)
				if d, ok := s.links.nextDeadline(); ok {
					e.schedule(evRetransmit, 0, d)
				}
			case evFlush:
				s.flushOutbox(int(ev.slot))
				if s.outboxes[ev.slot].len() > 0 {
					// Backpressured sends retry every step, as the sweep's
					// per-step flush phase does.
					e.schedule(evFlush, ev.slot, t+1)
				}
			}
		}
		if s.cfg.RecordSeries {
			s.stats.QueuedSeries = append(s.stats.QueuedSeries, s.inFlight)
		}
		if s.cfg.Observer != nil {
			s.cfg.Observer.AfterStep(t, s.inFlight)
		}
		if s.quiescent() {
			s.stats.Steps = t + 1
			s.stats.Quiescent = true
			return s.stats
		}
		last = t
	}

	if last < 0 && s.quiescent() {
		// Nothing was ever scheduled (no injections, no tickers, no pending
		// work). The sweep still executes step 0 before observing
		// quiescence; replay its poll and bookkeeping.
		if !s.pollStep(ctx, 0) {
			return s.stats
		}
		s.step = 0
		if s.cfg.RecordSeries {
			s.stats.QueuedSeries = append(s.stats.QueuedSeries, s.inFlight)
		}
		if s.cfg.Observer != nil {
			s.cfg.Observer.AfterStep(0, s.inFlight)
		}
		s.stats.Steps = 1
		s.stats.Quiescent = true
		return s.stats
	}

	// Work remains but nothing fires below MaxSteps (messages due at or
	// past the horizon, or pending work no tick can drain): idle through
	// the rest of the budget, as the sweep does.
	if !s.idleSteps(ctx, last+1, s.cfg.MaxSteps) {
		return s.stats
	}
	s.stats.Steps = s.cfg.MaxSteps
	s.stats.Quiescent = false
	return s.stats
}

// interrupted finalises stats for a cancellation observed before step st.
func (s *Simulator) interrupted(st int64) {
	s.stats.Steps = st
	s.stats.Quiescent = false
	s.stats.Interrupted = true
}

// pollStep is the sweep's slice-granular cancellation poll for one step,
// run before the step executes. Reports false when the run was interrupted.
func (s *Simulator) pollStep(ctx context.Context, st int64) bool {
	if st%CancelSliceSteps == 0 && ctx.Err() != nil {
		s.interrupted(st)
		return false
	}
	return true
}

// idleSteps simulates steps [from, to) in which no event fires: nothing in
// the machine can change, so only the cancellation poll and the per-step
// series/observer bookkeeping run. Stats.QueuedSeries still receives one
// entry per simulated step — idle gaps are filled with the unchanged
// in-flight count — and the observer sees every step, exactly as under the
// sweep. Reports false when a poll observed cancellation.
func (s *Simulator) idleSteps(ctx context.Context, from, to int64) bool {
	if from >= to {
		return true
	}
	if s.cfg.Observer == nil && !s.cfg.RecordSeries {
		// No per-step bookkeeping: the whole gap reduces to the poll at its
		// first CancelSliceSteps boundary (the gap is simulated in O(1)
		// real time, so later boundaries cannot observe a newer ctx state).
		first := (from + CancelSliceSteps - 1) / CancelSliceSteps * CancelSliceSteps
		if first < to && ctx.Err() != nil {
			s.interrupted(first)
			return false
		}
		s.step = to - 1
		return true
	}
	for st := from; st < to; st++ {
		if !s.pollStep(ctx, st) {
			return false
		}
		s.step = st
		if s.cfg.RecordSeries {
			s.stats.QueuedSeries = append(s.stats.QueuedSeries, s.inFlight)
		}
		if s.cfg.Observer != nil {
			s.cfg.Observer.AfterStep(st, s.inFlight)
		}
	}
	return true
}

// eventDeliver replays the sweep's phase-1 visit of one slot: pop up to
// DeliverPerStep due messages from each active link queue (snapshotting the
// active list, as the sweep does) plus all due external injections, then
// reschedule the slot's next visit from its remaining queue heads.
func (s *Simulator) eventDeliver(i int) {
	if s.cfg.QueueModel == LinkQueues {
		s.scratch = append(s.scratch[:0], s.active[i]...)
		for _, li := range s.scratch {
			q := &s.inLinks[i][li]
			for k := 0; k < s.cfg.DeliverPerStep; k++ {
				msg, ok := q.popDue(s.step)
				if !ok {
					break
				}
				s.inFlight--
				s.deliver(i, msg)
			}
			if q.len() == 0 {
				s.deactivate(i, li)
			}
		}
		for {
			msg, ok := s.extQ[i].popDue(s.step)
			if !ok {
				break
			}
			s.inFlight--
			s.deliver(i, msg)
		}
	} else {
		for k := 0; k < s.cfg.DeliverPerStep; k++ {
			msg, ok := s.extQ[i].popDue(s.step)
			if !ok {
				break
			}
			s.inFlight--
			s.deliver(i, msg)
		}
	}
	// Next visit: the earliest head arrival still queued, floored to the
	// next step — a head already due was bandwidth-limited this step.
	next := int64(-1)
	if s.cfg.QueueModel == LinkQueues {
		for _, li := range s.active[i] {
			if a, ok := s.inLinks[i][li].headArrival(); ok && (next < 0 || a < next) {
				next = a
			}
		}
	}
	if a, ok := s.extQ[i].headArrival(); ok && (next < 0 || a < next) {
		next = a
	}
	if next >= 0 {
		if next <= s.step {
			next = s.step + 1
		}
		s.eng.schedule(evDeliver, int32(i), next)
	}
	// Deliveries buffered into a demand ticker's mailbox are drained by a
	// tick in this same step (the sweep's phase 2 follows its phase 1).
	if s.tickers[i] != nil && s.pendings[i] != nil && s.pendings[i].PendingWork() {
		s.eng.schedule(evTick, int32(i), s.step)
	}
}

// eventTick replays the sweep's phase-2 visit of one slot.
func (s *Simulator) eventTick(i int) {
	s.tickers[i].Tick(&s.contexts[i])
	// Ticker-only handlers tick every step; demand tickers only while work
	// remains (budget-limited leftovers or tick-time local sends).
	if s.pendings[i] == nil || s.pendings[i].PendingWork() {
		s.eng.schedule(evTick, int32(i), s.step+1)
	}
}
