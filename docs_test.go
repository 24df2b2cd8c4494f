package hypersolve_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCoverEveryRoute: every route string the HTTP handlers register
// appears in docs/API.md, so an endpoint cannot ship undocumented, and the
// README links both documents.
func TestDocsCoverEveryRoute(t *testing.T) {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	api := read("docs/API.md")
	route := regexp.MustCompile(`"((?:GET|POST|DELETE) [^"]*)"`)
	for _, src := range []string{"internal/service/api.go", "internal/service/node.go", "internal/cluster/handler.go"} {
		routes := route.FindAllStringSubmatch(read(src), -1)
		if len(routes) == 0 {
			t.Errorf("%s registers no routes: has the HTTP surface moved?", src)
		}
		for _, m := range routes {
			if !strings.Contains(api, m[1]) {
				t.Errorf("docs/API.md is missing route %q (registered in %s)", m[1], src)
			}
		}
	}
	readme := read("README.md")
	for _, doc := range []string{"docs/ARCHITECTURE.md", "docs/API.md"} {
		if !strings.Contains(readme, doc) {
			t.Errorf("README.md does not link %s", doc)
		}
	}
}
