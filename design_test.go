package rdfcube_test

import (
	"os"
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
