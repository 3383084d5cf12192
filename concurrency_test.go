package fibbing

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// syncAllowed names the program files that may import sync or
// sync/atomic, as filepath.Match patterns relative to the module root.
// They hold the concurrency that exists: the SNMP agent and client with
// their exchange pool, and fibbingd's pacing mutex between the scheduler
// and its UDP agent. Everything else runs on the scheduler's goroutine
// and takes no lock; whatever runs SPF owns its scratch.
var syncAllowed = []string{
	"internal/snmp/*.go",
	"cmd/fibbingd/main.go",
}

// TestOneConcurrencyMechanism fails when a non-test file under cmd/,
// internal/ or examples/ outside syncAllowed imports sync or sync/atomic:
// a lock there would guard state no second goroutine touches.
func TestOneConcurrencyMechanism(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, _ := listPackages(t, fset)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, p := range pkgs {
		if p.Dir == "" || !strings.HasPrefix(p.Dir, wd) {
			continue // the standard library packages listed for the map-order fixture
		}
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := filepath.Rel(wd, path)
			if err != nil {
				t.Fatal(err)
			}
			rel = filepath.ToSlash(rel)
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if (ip == "sync" || ip == "sync/atomic") && !syncAllowedFile(rel) {
					t.Errorf("%s imports %s: only %v may; the rest runs on the scheduler's goroutine", rel, ip, syncAllowed)
				}
			}
			checked++
		}
	}
	if checked < 60 {
		t.Fatalf("checked %d files; the listing lost the tree", checked)
	}
}

func syncAllowedFile(rel string) bool {
	for _, pattern := range syncAllowed {
		if ok, _ := filepath.Match(pattern, rel); ok {
			return true
		}
	}
	return false
}
