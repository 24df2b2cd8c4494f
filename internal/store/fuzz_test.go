package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// state is everything a reader can see of a store, as bytes. It is compared
// encoded rather than with DeepEqual because a compaction re-marshals every
// json.RawMessage, and marshaling one canonicalises it (insignificant
// whitespace dropped, '<' escaped): same JSON, different bytes. Nothing the
// service writes is affected — its blobs come out of json.Marshal already —
// but fuzzed input is.
func state(t *testing.T, f *File) []byte {
	t.Helper()
	epoch, lsn := f.ReplicationState()
	data, err := json.Marshal(struct {
		Epoch, LSN int64
		Jobs       []Job
	}{epoch, lsn, f.List()})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzReplay feeds arbitrary bytes to Open as the three files it replays.
// Open may refuse them (a corrupt snapshot is an error, not a guess) but
// never panics, and what it recovers is a fixed point: closing and opening
// again — over whatever the first Open compacted, truncated and rewrote —
// recovers the same jobs at the same cursor.
func FuzzReplay(f *testing.F) {
	f.Add(readLegacy(f, SnapshotName), readLegacy(f, JournalPrevName), readLegacy(f, JournalName))
	f.Fuzz(func(t *testing.T, snap, prev, live []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{SnapshotName: snap, JournalPrevName: prev, JournalName: live} {
			if len(data) == 0 {
				continue // an absent file, the common case
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cfg := FileConfig{Dir: dir, SnapshotEvery: 8, History: 4}
		first, err := Open(cfg)
		if err != nil {
			return
		}
		want := state(t, first)
		if err := first.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		second, err := Open(cfg)
		if err != nil {
			t.Fatalf("reopening what Open itself left behind: %v", err)
		}
		defer second.Close()
		if got := state(t, second); !bytes.Equal(got, want) {
			t.Fatalf("recovery is not a fixed point:\nfirst open:  %s\nsecond open: %s", want, got)
		}
	})
}

// FuzzApplyFeed feeds arbitrary bytes to a replica as a feed page — the
// one input the store takes from the network. The replica starts where a
// standby of the legacy fixture's primary would be after compacting (LSN
// 14), so that primary's record page applies. Whatever the page: no panic;
// the fencing epoch never moves backwards; the cursor moves backwards only
// by a snapshot page, which installs the source's cursor wholesale (that is
// what lets a standby that ran ahead of a crashed primary re-sync); and a
// page that applied changes nothing when it arrives again.
func FuzzApplyFeed(f *testing.F) {
	f.Add(readLegacy(f, "parent/feed_records.json"))
	f.Add(readLegacy(f, "parent/feed_snapshot.json"))
	f.Fuzz(func(t *testing.T, page []byte) {
		r, err := Open(FileConfig{Dir: legacyDir(t, SnapshotName), Replica: true, SnapshotEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		epoch0, lsn0 := r.ReplicationState()
		res, err := r.ApplyFeed(page, nil)
		epoch1, lsn1 := r.ReplicationState()
		if epoch1 < epoch0 {
			t.Fatalf("epoch moved backwards: %d -> %d", epoch0, epoch1)
		}
		if lsn1 < lsn0 && !res.Snapshot {
			t.Fatalf("a record page moved the cursor backwards: %d -> %d", lsn0, lsn1)
		}
		if err != nil {
			return
		}
		want := state(t, r)
		// The second arrival may be refused (a page can fence itself by
		// carrying a snapshot from a later epoch than it claims); it may not
		// change anything.
		if again, _ := r.ApplyFeed(page, nil); !again.Snapshot && again.Applied != 0 {
			t.Fatalf("second arrival of the same page applied %d records", again.Applied)
		}
		if got := state(t, r); !bytes.Equal(got, want) {
			t.Fatalf("second arrival of the same page changed the replica:\nbefore: %s\nafter:  %s", want, got)
		}
	})
}
