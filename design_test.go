package rdfcube_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestDesignInventoryListsEveryPackage keeps DESIGN.md §3 honest: every
// directory under cmd/ and internal/ must appear in the package inventory
// under its parent. (The inventory had silently fallen twelve directories
// behind the tree.)
func TestDesignInventoryListsEveryPackage(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "\n## 3. Package inventory\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## 3. Package inventory" section`)
	}
	section, _, _ := strings.Cut(rest, "\n## ")

	// The inventory is an indented tree: "  cmd/" and "  internal/" at two
	// spaces, their packages as "    name/" at four.
	listed := map[string]bool{}
	parent := ""
	for _, line := range strings.Split(section, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasSuffix(fields[0], "/") {
			continue
		}
		switch len(line) - len(strings.TrimLeft(line, " ")) {
		case 2:
			parent = fields[0]
		case 4:
			listed[parent+fields[0]] = true
		}
	}
	for _, root := range []string{"cmd/", "internal/"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() && !listed[root+e.Name()+"/"] {
				t.Errorf("DESIGN.md §3 does not list %s%s/", root, e.Name())
			}
		}
	}
}

// TestBenchmarkModuleVets compiles what tier-1 otherwise never sees:
// benchmark/ is a module of its own (replace rdfcube => ../), so the root
// `go build ./... && go test ./...` passes while a renamed core.Result
// field or Options knob has already broken the benchmark the driver runs
// next. `go vet` type-checks the module and its tests against this tree.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "benchmark"
	// The module needs nothing but this tree; GOPROXY=off and a local
	// toolchain make any attempt to fetch a failure instead of a download.
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("(cd benchmark && go vet ./...): %v\n%s", err, out)
	}
}
