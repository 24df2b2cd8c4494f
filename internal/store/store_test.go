package store

import (
	"encoding/json"
	"errors"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
	"time"
)

// backends yields a fresh store of each kind; the file backend lives in a
// per-test temp dir.
func backends(t *testing.T, history int, fn func(t *testing.T, s Store)) {
	t.Run("memory", func(t *testing.T) {
		s := NewMemory(history)
		defer s.Close()
		fn(t, s)
	})
	t.Run("file", func(t *testing.T) {
		s, err := Open(FileConfig{Dir: t.TempDir(), History: history})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fn(t, s)
	})
}

func spec(n int) json.RawMessage {
	data, _ := json.Marshal(map[string]any{"kind": "sum", "n": n})
	return data
}

func at(sec int) time.Time {
	return time.Date(2026, 7, 30, 12, 0, sec, 0, time.UTC)
}

func TestLifecycle(t *testing.T) {
	backends(t, 0, func(t *testing.T, s Store) {
		j, err := s.Submit(spec(1), at(0))
		if err != nil {
			t.Fatal(err)
		}
		if j.ID != 1 || j.State != StateQueued || !j.SubmittedAt.Equal(at(0)) {
			t.Fatalf("submitted = %+v, want ID 1 queued at t0", j)
		}
		if err := s.Start(j.ID, at(1)); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(j.ID)
		if !ok || got.State != StateRunning || !got.StartedAt.Equal(at(1)) {
			t.Fatalf("after start = %+v", got)
		}
		result := json.RawMessage(`{"ok":true,"value":1}`)
		if _, err := s.Finish(j.ID, StateDone, at(2), "", result); err != nil {
			t.Fatal(err)
		}
		got, _ = s.Get(j.ID)
		if got.State != StateDone || string(got.Result) != string(result) || !got.FinishedAt.Equal(at(2)) {
			t.Fatalf("after finish = %+v", got)
		}
	})
}

func TestMonotonicIDsAndListOrder(t *testing.T) {
	backends(t, 0, func(t *testing.T, s Store) {
		for want := int64(1); want <= 5; want++ {
			j, err := s.Submit(spec(int(want)), at(int(want)))
			if err != nil {
				t.Fatal(err)
			}
			if j.ID != want {
				t.Fatalf("ID = %d, want %d", j.ID, want)
			}
		}
		jobs := s.List()
		if len(jobs) != 5 {
			t.Fatalf("List returned %d jobs, want 5", len(jobs))
		}
		for i, j := range jobs {
			if j.ID != int64(i+1) {
				t.Fatalf("List order broken: jobs[%d].ID = %d", i, j.ID)
			}
		}
	})
}

func TestListStateFilter(t *testing.T) {
	backends(t, 0, func(t *testing.T, s Store) {
		a, _ := s.Submit(spec(1), at(0))
		b, _ := s.Submit(spec(2), at(0))
		c, _ := s.Submit(spec(3), at(0))
		_ = s.Start(b.ID, at(1))
		_ = s.Start(c.ID, at(1))
		if _, err := s.Finish(c.ID, StateFailed, at(2), "boom", nil); err != nil {
			t.Fatal(err)
		}
		if got := s.List(StateQueued); len(got) != 1 || got[0].ID != a.ID {
			t.Fatalf("List(queued) = %+v", got)
		}
		if got := s.List(StateRunning, StateFailed); len(got) != 2 {
			t.Fatalf("List(running, failed) = %+v", got)
		}
		if got := s.List(StateDone); len(got) != 0 {
			t.Fatalf("List(done) = %+v, want empty", got)
		}
	})
}

func TestTransitionErrors(t *testing.T) {
	backends(t, 0, func(t *testing.T, s Store) {
		if err := s.Start(99, at(0)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Start(unknown) = %v, want ErrNotFound", err)
		}
		if _, err := s.Finish(99, StateDone, at(0), "", nil); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Finish(unknown) = %v, want ErrNotFound", err)
		}
		j, _ := s.Submit(spec(1), at(0))
		_ = s.Start(j.ID, at(1))
		if err := s.Start(j.ID, at(2)); !errors.Is(err, ErrNotQueued) {
			t.Fatalf("double Start = %v, want ErrNotQueued", err)
		}
		if _, err := s.Finish(j.ID, StateDone, at(2), "", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Finish(j.ID, StateCancelled, at(3), "", nil); !errors.Is(err, ErrTerminal) {
			t.Fatalf("double Finish = %v, want ErrTerminal", err)
		}
	})
}

func TestEvictionOldestFirst(t *testing.T) {
	backends(t, 2, func(t *testing.T, s Store) {
		var evicted []int64
		for i := 1; i <= 4; i++ {
			j, _ := s.Submit(spec(i), at(i))
			_ = s.Start(j.ID, at(i))
			ev, err := s.Finish(j.ID, StateDone, at(i), "", nil)
			if err != nil {
				t.Fatal(err)
			}
			evicted = append(evicted, ev...)
		}
		if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
			t.Fatalf("evicted = %v, want [1 2]", evicted)
		}
		if _, ok := s.Get(1); ok {
			t.Fatal("job 1 should be evicted")
		}
		if jobs := s.List(); len(jobs) != 2 || jobs[0].ID != 3 {
			t.Fatalf("List after eviction = %+v", jobs)
		}
	})
}

func TestParseState(t *testing.T) {
	for _, name := range []string{"queued", "running", "done", "failed", "cancelled"} {
		st, err := ParseState(name)
		if err != nil || string(st) != name {
			t.Fatalf("ParseState(%q) = %q, %v", name, st, err)
		}
	}
	if _, err := ParseState("exploded"); err == nil {
		t.Fatal("ParseState accepted an unknown state")
	}
}

// TestImportSet pins what the package doc promises: the store depends on
// the standard library, telemetry and ringbuf — nothing that knows what a
// spec, a result or an annotation means.
func TestImportSet(t *testing.T) {
	allowed := map[string]bool{"hypersolve/internal/telemetry": true, "hypersolve/internal/ringbuf": true}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") || (first == "hypersolve" && !allowed[path]) {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
}
