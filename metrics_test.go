package rdfcube_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMetricsTableMatchesCode keeps METRICS.md honest: every metric name
// declared as a Ctr*, Gauge*, Hist* or Span* string constant in core,
// serve, gate or replica has a row in its table, and every row whose name
// is not a run-time pattern (one holding a <placeholder>) names a
// declared constant.
func TestMetricsTableMatchesCode(t *testing.T) {
	doc, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(string(doc), -1) {
		listed[m[1]] = true
	}

	metricConst := regexp.MustCompile(`^(Ctr|Gauge|Hist|Span)[A-Z]`)
	declared := map[string]string{} // metric name -> package.Const
	fset := token.NewFileSet()
	for _, pkg := range []string{"core", "serve", "gate", "replica"} {
		dir := "internal/" + pkg
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, dir+"/"+e.Name(), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if !metricConst.MatchString(name.Name) || i >= len(vs.Values) {
							continue
						}
						lit, ok := vs.Values[i].(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							continue // an alias of a name declared elsewhere
						}
						v, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						declared[v] = pkg + "." + name.Name
					}
				}
			}
		}
	}
	if len(declared) < 70 {
		t.Fatalf("found only %d metric constants; did the declarations move?", len(declared))
	}
	for name, decl := range declared {
		if !listed[name] {
			t.Errorf("METRICS.md lacks %s (%s)", name, decl)
		}
	}
	for name := range listed {
		if !strings.Contains(name, "<") && declared[name] == "" {
			t.Errorf("METRICS.md lists %s, which no code declares", name)
		}
	}
}
