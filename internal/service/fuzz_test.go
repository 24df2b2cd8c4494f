package service

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hypersolve/internal/sat"
)

var decimal = regexp.MustCompile(`[0-9]+`)

// cheapToCompile keeps one fuzz exec in the milliseconds and its memory in
// the kilobytes: admission bounds a spec's sizes, but generously, so the
// harness compiles a spec only when its machine has at most 10^3 nodes or is
// refused before it is built, and its instance has at most 64 variables or
// items or is refused before it is generated.
func cheapToCompile(spec JobSpec) bool {
	sizes := decimal.FindAllString(spec.Topology, -1)
	smallMachine := len(sizes) <= 3
	for _, s := range sizes {
		if n, err := strconv.Atoi(s); err != nil || n > 10 {
			smallMachine = false
		}
	}
	if !smallMachine && checkMachineSize(spec.Topology, spec.ProcsPerNode) == nil {
		return false
	}
	if spec.CNF != "" {
		f, err := sat.ParseDIMACS(strings.NewReader(spec.CNF))
		return err != nil || f.NumVars <= 64 || f.NumVars > sat.MaxDeclaredVars
	}
	return spec.N <= 64 || spec.N > maxGeneratedN
}

// FuzzReadJobSpec feeds arbitrary bytes to the spec decoder that the
// daemon, the router and hyperctl share. It never panics; an accepted body
// re-marshals (what the router forwards to a shard) to a body that is
// accepted as the same spec, and compiling it returns a machine or an
// error, never a panic.
func FuzzReadJobSpec(f *testing.F) {
	f.Add([]byte(`{"kind":"sat","cnf":"p cnf 3 2\n1 -3 0\n2 3 0\n"}`)) // the rest of the seeds are in testdata/fuzz
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := DecodeJobSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		forwarded, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		// Compared as bytes: an empty portfolio forwards as an absent one.
		again, err := DecodeJobSpec(bytes.NewReader(forwarded))
		if reforwarded, _ := json.Marshal(again); err != nil || !bytes.Equal(reforwarded, forwarded) {
			t.Fatalf("forwarded spec %s is re-read (err=%v) as %s", forwarded, err, reforwarded)
		}
		if cheapToCompile(spec) {
			if c, err := spec.Compile(); err == nil && (c.Config.Topology == nil || c.Config.Mapper == nil || c.Config.Task == nil) {
				t.Fatalf("compiled %s to an incomplete config %+v", forwarded, c.Config)
			}
		}
	})
}

// FuzzParseJobID checks both wire forms of a job ID: parsing never panics,
// and whatever parses renders to a canonical string and a JSON value that
// parse back to the same ID.
func FuzzParseJobID(f *testing.F) {
	f.Add("s2-17") // the rest of the seeds are in testdata/fuzz
	f.Fuzz(func(t *testing.T, s string) {
		id, err := ParseJobID(s)
		if err != nil {
			return
		}
		if id.Seq < 0 || id.Shard < 0 {
			t.Fatalf("ParseJobID(%q) = %+v: negative component", s, id)
		}
		if again, err := ParseJobID(id.String()); err != nil || again != id {
			t.Fatalf("ParseJobID(%q) = %+v, but its String %q parses to %+v, %v", s, id, id.String(), again, err)
		}
		data, err := json.Marshal(id)
		if err != nil {
			t.Fatal(err)
		}
		var decoded JobID
		if err := json.Unmarshal(data, &decoded); err != nil || decoded != id {
			t.Fatalf("%+v marshals to %s, which decodes to %+v, %v", id, data, decoded, err)
		}
	})
}

// FuzzDecodeEvents feeds arbitrary bytes to the SSE decoder that Watch,
// hyperctl and the cluster router share. It never panics; it returns nil
// exactly when the last frame it delivered is terminal, delivers no frame
// after a terminal one, and the frames it delivers, written back out with
// WriteEvent, decode to the same frames.
func FuzzDecodeEvents(f *testing.F) {
	for _, p := range []Progress{
		{State: StateQueued},
		{State: StateRunning, Step: 4096, Queued: 12, ElapsedMs: 250, StepsPerSec: 16384.5, Strategy: "lbn"},
		{State: StateDone, Step: 17, Strategy: "lbn"},
		{State: StateFailed, Step: 3, Error: "core: task panicked: no neighbour"},
		{State: StateCancelled, Step: 1 << 20},
	} {
		var b bytes.Buffer
		if err := WriteEvent(&b, p); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	decode := func(stream []byte) ([]Progress, error) {
		var frames []Progress
		err := DecodeEvents(context.Background(), bytes.NewReader(stream), func(p Progress) { frames = append(frames, p) })
		return frames, err
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		frames, err := decode(stream)
		for i, p := range frames {
			if p.State.Terminal() != (i == len(frames)-1 && err == nil) {
				t.Fatalf("frame %d of %d is %+v with error %v: only a last frame may be terminal, and it ends the stream", i, len(frames), p, err)
			}
		}
		var again bytes.Buffer
		for _, p := range frames {
			if err := WriteEvent(&again, p); err != nil {
				t.Fatal(err)
			}
		}
		reframes, reerr := decode(again.Bytes())
		if !reflect.DeepEqual(reframes, frames) || (reerr == nil) != (err == nil) {
			t.Fatalf("frames %+v (err %v) written back decode as %+v (err %v)", frames, err, reframes, reerr)
		}
	})
}
