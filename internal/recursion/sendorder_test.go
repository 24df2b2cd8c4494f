package recursion_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"testing"

	"hypersolve/internal/apps"
	"hypersolve/internal/core"
	"hypersolve/internal/mapping"
	"hypersolve/internal/mesh"
	"hypersolve/internal/recursion"
	"hypersolve/internal/sat"
	"hypersolve/internal/sched"
)

// recorder wraps a mapper and logs what every Choose call saw and chose.
// The log is the machine's send order as layer 3 observes it: a runtime that
// issued a subcall earlier, later, or from a different activation would
// change a Step, a Mapped count or a chosen index somewhere in it.
type recorder struct {
	inner mapping.Algorithm
	log   hash.Hash
	calls *int
}

func (r recorder) Name() string { return r.inner.Name() }

func (r recorder) Choose(v mapping.View) int {
	idx := r.inner.Choose(v)
	fmt.Fprintf(r.log, "%d %d %d %g %d\n", v.Self, v.Step, v.Mapped, v.Hint, idx)
	*r.calls++
	return idx
}

// sendOrderPin is one entry of testdata/sendorder.json.
type sendOrderPin struct {
	SHA256      string          `json:"sha256"`
	ChooseCalls int             `json:"choose_calls"`
	Value       string          `json:"value"`
	Stats       json.RawMessage `json:"stats"`
}

// mixedTask issues a gather call, parks on a choice, syncs the gather, then
// leaves one fire-and-forget call behind as it returns: every way a
// buffered call can reach the wire.
func mixedTask(f *recursion.Frame, arg recursion.Value) recursion.Value {
	n := arg.(int)
	if n <= 0 {
		return -n
	}
	f.Call(-n)
	v, ok := f.Choose(func(v recursion.Value) bool { return v.(int) >= 0 }, n-1, n-2)
	if !ok {
		return -1
	}
	got := f.Sync()
	f.Call(-100 - n) // never synced
	return got[0].(int) + v.(int)
}

// TestSendOrderPinned replays workloads whose mapper-visible send order,
// root value and layer-1 Stats were captured at the commit before frames
// moved onto pooled workers (fc4613b). testdata/sendorder.json is never
// regenerated: a mismatch means the runtime changed what the machine does.
// Its "mixed-cancel" pin belongs to a retired off-by-default extension and is
// no longer replayed.
func TestSendOrderPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/sendorder.json")
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]sendOrderPin{}
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}

	items := make([]apps.Item, 10)
	for i := range items {
		items[i] = apps.Item{Weight: 3 + (i*7)%11, Value: 5 + (i*13)%17}
	}
	suite, err := sat.GenerateSuite(sat.UF20Params(1))
	if err != nil {
		t.Fatal(err)
	}
	mapper := func(name string) mapping.Factory {
		f, err := mapping.Registry(name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	cases := []struct {
		name string
		cfg  core.Config
		arg  recursion.Value
	}{
		{"fib12-rr", core.Config{Topology: mesh.MustTorus(6, 6), Mapper: mapper("rr"), Task: apps.FibTask()}, 12},
		{"queens6-lbn-2procs", core.Config{Topology: mesh.MustTorus(4, 4), Mapper: mapper("lbn"), Task: apps.QueensTask(3), ProcsPerNode: 2}, apps.QueensState{N: 6}},
		{"knapsack10-weighted", core.Config{Topology: mesh.MustTorus(4, 4), Mapper: mapper("weighted"), Task: apps.KnapsackTask(2)}, apps.NewKnapsack(items, 30)},
		{"uf20-lbn", core.Config{Topology: mesh.MustTorus(6, 6), Mapper: mapper("lbn"), Task: sat.Task(sat.MostFrequent)}, sat.NewProblem(suite[0])},
		{"mixed", core.Config{Topology: mesh.MustTorus(4, 4), Mapper: mapper("rr"), Task: mixedTask}, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log, calls := sha256.New(), 0
			inner := tc.cfg.Mapper
			tc.cfg.Mapper = func(self sched.PID, nbrs []sched.PID, seed int64) mapping.Algorithm {
				return recorder{inner: inner(self, nbrs, seed), log: log, calls: &calls}
			}
			tc.cfg.Seed = 1
			res, err := core.RunOnce(tc.cfg, tc.arg)
			if err != nil || !res.OK {
				t.Fatalf("run: ok=%v err=%v", res.OK, err)
			}
			stats, err := json.Marshal(res.Stats)
			if err != nil {
				t.Fatal(err)
			}
			got := sendOrderPin{
				SHA256:      hex.EncodeToString(log.Sum(nil)),
				ChooseCalls: calls,
				Value:       fmt.Sprint(res.Value),
				Stats:       stats,
			}
			want, ok := pins[tc.name]
			if !ok {
				b, _ := json.Marshal(got)
				t.Fatalf("no pin for %s in testdata/sendorder.json; this run: %s", tc.name, b)
			}
			if got.SHA256 != want.SHA256 || got.ChooseCalls != want.ChooseCalls {
				t.Errorf("send order: %d choose calls, digest %s; pinned %d, %s",
					got.ChooseCalls, got.SHA256, want.ChooseCalls, want.SHA256)
			}
			if got.Value != want.Value {
				t.Errorf("root value %s, pinned %s", got.Value, want.Value)
			}
			var pinned bytes.Buffer
			if err := json.Compact(&pinned, want.Stats); err != nil {
				t.Fatal(err)
			}
			if string(got.Stats) != pinned.String() {
				t.Errorf("stats %s\npinned %s", got.Stats, pinned.String())
			}
		})
	}
}
