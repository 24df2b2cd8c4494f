package telemetry

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseText feeds arbitrary bytes to the exposition parser the router
// runs over every backend's scrape. It never panics, and parsing is
// idempotent through the writer: once a scrape has been parsed and written
// (which drops what the parser skips and families without samples), parsing
// and writing it again changes nothing — so a scrape relayed through any
// number of routers reads the same.
func FuzzParseText(f *testing.F) {
	f.Add([]byte("# HELP x_total Things.\n# TYPE x_total counter\nx_total{a=\"b\"} 3\n")) // the rest of the seeds are in testdata/fuzz
	write := func(fams []Family) []byte {
		var buf bytes.Buffer
		if err := WriteFamilies(&buf, fams); err != nil {
			panic(err) // a bytes.Buffer does not fail
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		once := ParseText(write(ParseText(data)))
		text := write(once)
		if twice := ParseText(text); !reflect.DeepEqual(twice, once) {
			t.Fatalf("not a fixpoint:\nwritten:\n%s\nparsed back as %+v\nwas            %+v", text, twice, once)
		}
	})
}
