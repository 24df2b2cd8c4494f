package tracelog

import "testing"

// FuzzParseTraceparent feeds arbitrary header values to the traceparent
// parser: it never panics, and whatever it accepts is a valid context whose
// rendered header parses back to the same trace and span.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01") // the rest of the seeds are in testdata/fuzz
	f.Fuzz(func(t *testing.T, header string) {
		tc, ok := ParseTraceparent(header)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("ParseTraceparent(%q) rejected the header but returned %+v", header, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", header, tc)
		}
		again, ok := ParseTraceparent(tc.Traceparent())
		if !ok || again != tc {
			t.Fatalf("%+v renders as %q, which parses to %+v (ok=%v)", tc, tc.Traceparent(), again, ok)
		}
	})
}
