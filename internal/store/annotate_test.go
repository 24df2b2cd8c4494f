package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// annotationKeys is the table the annotation tests run over: the two keys
// internal/service writes today — which are also the two the store used to
// name — and one nobody has written yet, because the next sidecar must need
// nothing from this package.
var annotationKeys = []string{"trace", "attempts", "profile"}

func blob(key string, version int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"of":%q,"v":%d}`, key, version))
}

// TestAnnotateContract pins Annotate on both backends, per key: the value
// round-trips opaquely, the last write wins, it stays writable once the job
// is terminal (a final value lands just after Finish), unknown IDs are
// refused, keys do not disturb each other, and a Job copy handed out before
// a write keeps the annotations it was handed.
func TestAnnotateContract(t *testing.T) {
	backends(t, 0, func(t *testing.T, s Store) {
		j, err := s.Submit(spec(1), at(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range annotationKeys {
			if err := s.Annotate(99, key, blob(key, 0)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Annotate(unknown, %q) = %v, want ErrNotFound", key, err)
			}
			if err := s.Annotate(j.ID, key, blob(key, 1)); err != nil {
				t.Fatal(err)
			}
		}
		early, _ := s.Get(j.ID)
		_ = s.Start(j.ID, at(1))
		if _, err := s.Finish(j.ID, StateDone, at(2), "", nil); err != nil {
			t.Fatal(err)
		}
		for _, key := range annotationKeys {
			if err := s.Annotate(j.ID, key, blob(key, 2)); err != nil {
				t.Fatalf("Annotate(%q) after Finish = %v, want nil", key, err)
			}
		}
		late, _ := s.Get(j.ID)
		for _, key := range annotationKeys {
			if got := early.Annotation(key); string(got) != string(blob(key, 1)) {
				t.Errorf("copy taken before the overwrite reads %q = %s, want %s", key, got, blob(key, 1))
			}
			if got := late.Annotation(key); string(got) != string(blob(key, 2)) {
				t.Errorf("%q after overwrite = %s, want %s", key, got, blob(key, 2))
			}
		}
		if len(late.Annotations) != len(annotationKeys) {
			t.Errorf("job carries %d annotations, want %d: %v", len(late.Annotations), len(annotationKeys), late.Annotations)
		}
	})
}

// TestAnnotateWhileRead is the copy-on-write contract under the race
// detector: readers range over the map of a Job copy while a writer keeps
// annotating the same job.
func TestAnnotateWhileRead(t *testing.T) {
	backends(t, 0, func(t *testing.T, s Store) {
		j, err := s.Submit(spec(1), at(0))
		if err != nil {
			t.Fatal(err)
		}
		var readers sync.WaitGroup
		stop := make(chan struct{})
		for range 2 {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					got, _ := s.Get(j.ID)
					for _, a := range got.Annotations {
						if len(a.Value) == 0 {
							t.Errorf("read an empty %q", a.Key)
						}
					}
				}
			}()
		}
		for i := range 200 {
			if err := s.Annotate(j.ID, annotationKeys[i%len(annotationKeys)], blob("k", i)); err != nil {
				t.Error(err)
			}
		}
		close(stop)
		readers.Wait()
	})
}

// TestAnnotationsAreDurable is the File half, per key: the last value
// written comes back byte-identical after a crash + journal replay, again
// once the journal has been folded into a snapshot, and on a replica that
// tailed the feed — where the arrive hook saw exactly the annotate records,
// and what it returned is what the replica keeps.
func TestAnnotationsAreDurable(t *testing.T) {
	for _, key := range annotationKeys {
		t.Run(key, func(t *testing.T) {
			dir := t.TempDir()
			s := reopen(t, nil, dir, FileConfig{SnapshotEvery: 4})
			j, err := s.Submit(spec(1), at(0))
			if err != nil {
				t.Fatal(err)
			}
			_ = s.Start(j.ID, at(1))
			if err := s.Annotate(j.ID, key, blob(key, 1)); err != nil {
				t.Fatal(err)
			}
			if err := s.Annotate(j.ID, key, blob(key, 2)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Finish(j.ID, StateDone, at(2), "", json.RawMessage(`{"ok":true}`)); err != nil {
				t.Fatal(err)
			}
			want := string(blob(key, 2))

			r := reopen(t, nil, t.TempDir(), FileConfig{Replica: true})
			var arrived []string
			page, err := s.Feed(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.ApplyFeed(page, func(k string, v json.RawMessage) json.RawMessage {
				arrived = append(arrived, k+"="+string(v))
				return append(v[:len(v)-1:len(v)-1], `,"replicated":true}`...)
			}); err != nil {
				t.Fatal(err)
			}
			if wantArrived := fmt.Sprint([]string{key + "=" + string(blob(key, 1)), key + "=" + want}); fmt.Sprint(arrived) != wantArrived {
				t.Fatalf("arrive hook saw %v, want %v", arrived, wantArrived)
			}
			stamped := want[:len(want)-1] + `,"replicated":true}`
			if got, _ := r.Get(j.ID); string(got.Annotation(key)) != stamped {
				t.Fatalf("replica keeps %s, want what the hook returned: %s", got.Annotation(key), stamped)
			}
			r2 := reopen(t, r, r.cfg.Dir, FileConfig{Replica: true})
			if got, _ := r2.Get(j.ID); string(got.Annotation(key)) != stamped {
				t.Fatalf("replica after reopen keeps %s, want %s", got.Annotation(key), stamped)
			}

			// Crash + replay. The fourth record started a background
			// compaction; a real crash would kill it, the simulated one must
			// wait it out or it races the reopen's own snapshot write.
			s.barrier()
			crashed := reopen(t, s, dir, FileConfig{SnapshotEvery: 4})
			if got, ok := crashed.Get(j.ID); !ok || string(got.Annotation(key)) != want {
				t.Fatalf("after replay = %s, want %s", got.Annotation(key), want)
			}

			// Push past SnapshotEvery so every record of the job is folded
			// into a snapshot, then replay from that.
			pump(t, crashed, 3)
			crashed.barrier()
			compacted := reopen(t, crashed, dir, FileConfig{SnapshotEvery: 4})
			if got, ok := compacted.Get(j.ID); !ok || string(got.Annotation(key)) != want {
				t.Fatalf("after compaction = %s, want %s", got.Annotation(key), want)
			}
		})
	}
}
