package service

import (
	"sync"
	"testing"
	"time"

	"hypersolve/internal/simulator"
)

// TestBrokerSlowSubscriberNeverBlocks: a subscriber that never reads must
// not block Publish — the solve loop's thread — no matter how many
// snapshots are published. Conflation keeps exactly the newest snapshot
// pending.
func TestBrokerSlowSubscriberNeverBlocks(t *testing.T) {
	b := NewProgressBroker()
	ch, cancel, err := b.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10_000; i++ {
			b.Publish(Progress{State: StateRunning, Step: int64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a subscriber that never reads")
	}
	p := <-ch
	if p.Step != 9999 {
		t.Fatalf("pending snapshot = step %d, want the newest (9999)", p.Step)
	}
}

// TestBrokerTerminalAlwaysDelivered: even when the terminal snapshot
// conflates away a pending progress snapshot, the last value every
// subscriber receives before its channel closes is the terminal one.
func TestBrokerTerminalAlwaysDelivered(t *testing.T) {
	b := NewProgressBroker()
	ch, cancel, err := b.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Fill the subscriber's buffer, then finish without it ever reading.
	b.Publish(Progress{State: StateRunning, Step: 1})
	b.Publish(Progress{State: StateRunning, Step: 2})
	b.Finish(StateDone, "", "", &JobResult{Stats: statsWithSteps(42)})

	var last Progress
	n := 0
	for p := range ch {
		last = p
		n++
	}
	if n != 1 {
		t.Fatalf("subscriber received %d snapshots, want just the conflated terminal one", n)
	}
	if last.State != StateDone || last.Step != 42 {
		t.Fatalf("last snapshot = %+v, want done at step 42", last)
	}

	// Publishing after the terminal snapshot is ignored, not a panic on a
	// closed channel.
	b.Publish(Progress{State: StateRunning, Step: 99})
}

// TestBrokerSubscribeAfterDone: a late subscriber replays the final
// snapshot on an already-closed channel.
func TestBrokerSubscribeAfterDone(t *testing.T) {
	b := NewProgressBroker()
	b.Publish(Progress{State: StateRunning, Step: 7, Queued: 3})
	b.Finish(StateFailed, "boom", "", nil)

	ch, cancel, err := b.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	p, ok := <-ch
	if !ok {
		t.Fatal("late subscriber got no replay")
	}
	if p.State != StateFailed || p.Error != "boom" || p.Step != 7 {
		t.Fatalf("replayed snapshot = %+v, want failed/boom at the last published step", p)
	}
	if _, ok := <-ch; ok {
		t.Fatal("late subscriber channel not closed after the replay")
	}
}

// TestBrokerFanOutBound: subscriptions beyond the per-job cap are rejected,
// and unsubscribing frees a slot.
func TestBrokerFanOutBound(t *testing.T) {
	b := NewProgressBroker()
	cancels := make([]func(), 0, maxSubscribers)
	for i := 0; i < maxSubscribers; i++ {
		_, cancel, err := b.Subscribe()
		if err != nil {
			t.Fatalf("subscriber %d rejected below the bound: %v", i, err)
		}
		cancels = append(cancels, cancel)
	}
	if _, _, err := b.Subscribe(); err != ErrTooManySubscribers {
		t.Fatalf("subscribe at the bound = %v, want ErrTooManySubscribers", err)
	}
	cancels[0]()
	if _, cancel, err := b.Subscribe(); err != nil {
		t.Fatalf("subscribe after an unsubscribe: %v", err)
	} else {
		cancel()
	}
}

// TestBrokerConcurrentPublishSubscribe exercises the broker under the race
// detector: concurrent publishers, subscribers and unsubscribers, ending in
// a terminal snapshot every reader observes.
func TestBrokerConcurrentPublishSubscribe(t *testing.T) {
	b := NewProgressBroker()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, cancel, err := b.Subscribe()
			if err != nil {
				return // fan-out bound; fine under contention
			}
			defer cancel()
			for p := range ch {
				if p.State.Terminal() {
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		b.Publish(Progress{State: StateRunning, Step: int64(i)})
	}
	b.Finish(StateCancelled, "", "", nil)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a subscriber never saw the terminal snapshot")
	}
}

// TestObserverThrottle: the observer publishes at most one snapshot per
// ProgressInterval however many steps elapse, and only on the
// progressCheckSteps cadence.
func TestObserverThrottle(t *testing.T) {
	b := NewProgressBroker()
	obs := b.attemptObserver("", nil, nil, nil)
	// Pretend the last publish is long past so the very next check fires.
	obs.lastPub = time.Now().Add(-time.Hour)
	ch, cancel, err := b.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	for step := int64(0); step < 4*progressCheckSteps; step++ {
		obs.AfterStep(step, 5)
	}
	// Only the first eligible check may have published: the rest fall
	// within the throttle window.
	select {
	case p := <-ch:
		if p.State != StateRunning || p.Queued != 5 {
			t.Fatalf("snapshot = %+v, want running with 5 queued", p)
		}
	default:
		t.Fatal("no snapshot published despite an expired throttle window")
	}
	select {
	case p := <-ch:
		t.Fatalf("second snapshot %+v published within the throttle interval", p)
	default:
	}
}

// TestServiceSubscribeLifecycle drives Subscribe through the service
// in-process: queued snapshot on submit, terminal snapshot on completion,
// synthesized replay for terminal jobs whose broker is gone, ErrNotFound
// for unknown jobs.
func TestServiceSubscribeLifecycle(t *testing.T) {
	s := New(Config{QueueDepth: 4, Workers: 1})
	defer s.Close()

	if _, _, err := s.Subscribe(999); err != ErrNotFound {
		t.Fatalf("Subscribe(unknown) = %v, want ErrNotFound", err)
	}

	job, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := s.Subscribe(job.ID.Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	var last Progress
	got := 0
	for p := range ch {
		last = p
		got++
	}
	if got == 0 || last.State != StateDone {
		t.Fatalf("stream delivered %d snapshots ending %+v, want >=1 ending done", got, last)
	}
	if last.Step <= 0 {
		t.Fatalf("terminal snapshot step = %d, want the run's total steps", last.Step)
	}

	// The broker is gone now; a late Subscribe synthesizes the final
	// snapshot from the store record.
	ch2, cancel2, err := s.Subscribe(job.ID.Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	p, ok := <-ch2
	if !ok || p.State != StateDone || p.Step != last.Step {
		t.Fatalf("late subscribe replayed %+v (ok=%v), want done at step %d", p, ok, last.Step)
	}
	if _, ok := <-ch2; ok {
		t.Fatal("late subscribe channel not closed")
	}
}

// TestServiceSubscribeSeesCancel: a subscriber on a running job observes
// the cancelled terminal snapshot when the job is cancelled mid-solve.
func TestServiceSubscribeSeesCancel(t *testing.T) {
	s := New(Config{QueueDepth: 4, Workers: 1})
	defer s.Close()
	job, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := s.Subscribe(job.ID.Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	waitForState(t, s, job.ID.Seq, StateRunning)
	if _, err := s.Cancel(job.ID.Seq); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case p, ok := <-ch:
			if !ok {
				t.Fatal("stream closed without a terminal snapshot")
			}
			if p.State.Terminal() {
				if p.State != StateCancelled {
					t.Fatalf("terminal snapshot state = %s, want cancelled", p.State)
				}
				return
			}
		case <-deadline:
			t.Fatal("no terminal snapshot after cancel")
		}
	}
}

// waitForState polls the service until the job reaches the state (the
// in-process analogue of the HTTP tests' poll loops).
func waitForState(t *testing.T, s *Service, id int64, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := s.Get(id); ok && j.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d never reached state %s", id, want)
}

func statsWithSteps(n int64) simulator.Stats {
	return simulator.Stats{Steps: n}
}
