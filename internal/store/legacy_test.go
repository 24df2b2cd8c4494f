package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// legacyFixture is a data directory the parent commit wrote, with what the
// parent commit read back from it (see its README).
const legacyFixture = "testdata/legacy"

func readLegacy(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(legacyFixture, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// legacyDir copies the named fixture files into a fresh directory: Open
// compacts and truncates what it is pointed at.
func legacyDir(t testing.TB, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), readLegacy(t, name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// parentView is {epoch, lsn, List()} as the parent commit marshaled it. The
// struct spells out the old Job on purpose: decoding the expectation through
// this package's own legacy mapping would compare the mapping with itself.
type parentView struct {
	Epoch int64 `json:"epoch"`
	LSN   int64 `json:"lsn"`
	Jobs  []struct {
		ID          int64           `json:"id"`
		Spec        json.RawMessage `json:"spec"`
		State       State           `json:"state"`
		SubmittedAt time.Time       `json:"submitted_at"`
		StartedAt   time.Time       `json:"started_at"`
		FinishedAt  time.Time       `json:"finished_at"`
		Error       string          `json:"error"`
		Result      json.RawMessage `json:"result"`
		Trace       json.RawMessage `json:"trace"`
		Attempts    json.RawMessage `json:"attempts"`
	} `json:"jobs"`
}

func (v parentView) want() []Job {
	jobs := make([]Job, len(v.Jobs))
	for i, p := range v.Jobs {
		jobs[i] = Job{ID: p.ID, Spec: p.Spec, State: p.State, SubmittedAt: p.SubmittedAt,
			StartedAt: p.StartedAt, FinishedAt: p.FinishedAt, Error: p.Error, Result: p.Result,
			Annotations: []Annotation{{"trace", p.Trace}}}
		if p.Attempts != nil {
			jobs[i].Annotations = append(jobs[i].Annotations, Annotation{"attempts", p.Attempts})
		}
	}
	return jobs
}

func readParentView(t *testing.T, name string) parentView {
	t.Helper()
	var v parentView
	if err := json.Unmarshal(readLegacy(t, name), &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Jobs) != 5 || v.Jobs[1].Attempts == nil || v.Jobs[4].Trace == nil {
		t.Fatalf("fixture view %s is not the five-job directory the README describes", name)
	}
	return v
}

func assertView(t *testing.T, when string, f *File, v parentView) {
	t.Helper()
	if epoch, lsn := f.ReplicationState(); epoch != v.Epoch || lsn != v.LSN {
		t.Errorf("%s: cursor (%d,%d), the parent read (%d,%d)", when, epoch, lsn, v.Epoch, v.LSN)
	}
	if got, want := f.List(), v.want(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: view differs from what the parent read:\ngot:  %+v\nwant: %+v", when, got, want)
	}
}

// TestLegacyDataDirectory: a directory written before annotations were
// generic — old ops in both journals, old fields in the snapshot — opens to
// exactly the view the commit that wrote it read back, in both modes, and
// that view survives being rewritten in today's format (Open folds the
// rotated journal into a fresh snapshot) and reopened.
func TestLegacyDataDirectory(t *testing.T) {
	for _, mode := range []struct {
		name    string
		replica bool
	}{{"primary", false}, {"replica", true}} {
		t.Run(mode.name, func(t *testing.T) {
			v := readParentView(t, "parent/store_"+mode.name+".json")
			dir := legacyDir(t, SnapshotName, JournalPrevName, JournalName)
			f := reopen(t, nil, dir, FileConfig{Replica: mode.replica})
			assertView(t, "first open", f, v)
			if _, err := os.Stat(filepath.Join(dir, JournalPrevName)); !os.IsNotExist(err) {
				t.Fatalf("open did not fold the rotated journal away: %v", err)
			}
			f = reopen(t, f, dir, FileConfig{Replica: mode.replica})
			assertView(t, "after compaction and reopen", f, v)
		})
	}
}

// TestLegacyFeedPages: a standby on this code following a primary still on
// the old one decodes its pages — snapshot jobs with the old fields, records
// with the old ops — to the same view.
func TestLegacyFeedPages(t *testing.T) {
	t.Run("snapshot", func(t *testing.T) {
		r := reopen(t, nil, t.TempDir(), FileConfig{Replica: true})
		if res, err := r.ApplyFeed(readLegacy(t, "parent/feed_snapshot.json"), nil); err != nil || !res.Snapshot {
			t.Fatalf("snapshot page: %+v, %v", res, err)
		}
		// The page was served by a primary, whose Open had already re-queued
		// the job the crash caught running.
		assertView(t, "bootstrapped", r, readParentView(t, "parent/store_primary.json"))
	})
	t.Run("records", func(t *testing.T) {
		// A replica that had compacted up to LSN 14 tails the rest.
		r := reopen(t, nil, legacyDir(t, SnapshotName), FileConfig{Replica: true})
		res, err := r.ApplyFeed(readLegacy(t, "parent/feed_records.json"), nil)
		if err != nil || res.Applied != 18 {
			t.Fatalf("records page: %+v, %v", res, err)
		}
		v := readParentView(t, "parent/store_replica.json")
		assertView(t, "tailed", r, v)
		assertView(t, "tailed and reopened", reopen(t, r, r.cfg.Dir, FileConfig{Replica: true}), v)
	})
}
