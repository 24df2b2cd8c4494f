package simulator

import "context"

// runSweep is the paper's step-synchronous loop: every slot is visited on
// every step. It is the reference implementation, not a selectable engine:
// nothing outside this package's tests can reach it, and the differential
// harness (difftest_*_test.go) requires the event engine to match it
// bit-for-bit — Stats, delivery order and observer callbacks.
func (s *Simulator) runSweep(ctx context.Context) Stats {
	s.start()
	for s.step = 0; s.step < s.cfg.MaxSteps; s.step++ {
		if s.step%CancelSliceSteps == 0 && ctx.Err() != nil {
			s.stats.Steps = s.step
			s.stats.Quiescent = false
			s.stats.Interrupted = true
			return s.stats
		}
		s.runStep()
		if s.cfg.RecordSeries {
			s.stats.QueuedSeries = append(s.stats.QueuedSeries, s.inFlight)
		}
		if s.cfg.Observer != nil {
			s.cfg.Observer.AfterStep(s.step, s.inFlight)
		}
		if s.quiescent() {
			s.stats.Steps = s.step + 1
			s.stats.Quiescent = true
			return s.stats
		}
	}
	s.stats.Steps = s.cfg.MaxSteps
	s.stats.Quiescent = false
	return s.stats
}

// runStep performs one paper-semantics simulation step: per-link deliveries,
// handler ticks, then outbox flush.
func (s *Simulator) runStep() {
	n := len(s.handlers)
	// Phase 1: deliveries.
	switch s.cfg.QueueModel {
	case LinkQueues:
		// Pop up to DeliverPerStep due messages from each non-empty
		// inbound link queue, plus all due external injections.
		for i := 0; i < n; i++ {
			// Snapshot the active link set: deliveries never add to it
			// (sends stage in outboxes until phase 4), but pops may
			// shrink it.
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
		}
	default:
		// NodeQueues: pop up to DeliverPerStep due messages from each
		// node's single inbox (external injections share it).
		for i := 0; i < n; i++ {
			for k := 0; k < s.cfg.DeliverPerStep; k++ {
				msg, ok := s.extQ[i].popDue(s.step)
				if !ok {
					break
				}
				s.inFlight--
				s.deliver(i, msg)
			}
		}
	}
	// Phase 2: per-step ticks for handlers that buffer internally.
	for i := 0; i < n; i++ {
		if s.tickers[i] != nil {
			s.tickers[i].Tick(&s.contexts[i])
		}
	}
	// Phase 3: retransmit overdue unacknowledged messages.
	if s.links != nil {
		s.links.retransmit(s)
	}
	// Phase 4: flush outboxes into destination link queues.
	for i := 0; i < n; i++ {
		s.flushOutbox(i)
	}
}
