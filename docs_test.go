package hypersolve_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
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

// TestGoCommentsNameExistingDocs: every upper-case Markdown file a Go
// comment names (README.md, docs/API.md, ...) exists, either at that path
// from the repository root or beside the file that names it. The benchmark
// module is its own tree and is not scanned.
func TestGoCommentsNameExistingDocs(t *testing.T) {
	doc := regexp.MustCompile(`(?:[\w.-]+/)*[A-Z][A-Z0-9_]*\.md\b`)
	named := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range f.Comments {
			for _, name := range doc.FindAllString(group.Text(), -1) {
				named++
				if _, err := os.Stat(name); err == nil {
					continue
				}
				if _, err := os.Stat(filepath.Join(filepath.Dir(path), name)); err == nil {
					continue
				}
				t.Errorf("%s names %s, which does not exist", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if named == 0 {
		t.Error("no Go comment names a Markdown file: has the pattern stopped matching?")
	}
}
