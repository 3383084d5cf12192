//go:build mutants

package fibbing

// The mutation check: every mutant in testdata/mutants.txt must be killed
// by each test its entry names. Run it with `make mutants`; the build tag
// keeps it out of `go test ./...`. A mutant is applied with `go test
// -overlay`, so the tree is never copied or written.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mutant is one entry of testdata/mutants.txt.
type mutant struct {
	line                      int
	name, file, old, new, pkg string
	kills                     []string
}

// parseMutants reads the entries: blank-line separated blocks of
// `key: value` lines, `#` comments, a value that starts with a double
// quote being a Go string literal.
func parseMutants(path string) ([]mutant, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ms []mutant
	var cur *mutant
	seen := map[string]bool{}
	finish := func() error {
		if cur == nil {
			return nil
		}
		m := *cur
		cur = nil
		if m.name == "" || m.file == "" || m.old == "" || m.pkg == "" || len(m.kills) == 0 {
			return fmt.Errorf("%s:%d: entry needs name, file, old, pkg and kill", path, m.line)
		}
		if seen[m.name] {
			return fmt.Errorf("%s:%d: mutant %q named twice", path, m.line, m.name)
		}
		seen[m.name] = true
		ms = append(ms, m)
		return nil
	}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.TrimSpace(line) == "" {
			if err := finish(); err != nil {
				return nil, err
			}
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("%s:%d: want `key: value`", path, n)
		}
		val = strings.TrimSpace(val)
		if strings.HasPrefix(val, `"`) {
			if val, err = strconv.Unquote(val); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, n, err)
			}
		}
		if cur == nil {
			cur = &mutant{line: n}
		}
		switch key {
		case "name":
			cur.name = val
		case "file":
			cur.file = val
		case "old":
			cur.old = val
		case "new":
			cur.new = val
		case "pkg":
			cur.pkg = val
		case "kill":
			cur.kills = append(cur.kills, val)
		default:
			return nil, fmt.Errorf("%s:%d: unknown key %q", path, n, key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := finish(); err != nil {
		return nil, err
	}
	return ms, nil
}

func TestMutants(t *testing.T) {
	ms, err := parseMutants(filepath.Join("testdata", "mutants.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("testdata/mutants.txt lists no mutants")
	}
	root, err := os.Getwd() // the module root: this file's package
	if err != nil {
		t.Fatal(err)
	}

	// Every killing test must pass on the tree as it is, or a mutant's
	// failure would prove nothing.
	clean := map[[2]string]bool{}
	for _, m := range ms {
		for _, kill := range m.kills {
			key := [2]string{m.pkg, kill}
			if clean[key] {
				continue
			}
			clean[key] = true
			if out, passed := runTest(t, root, m.pkg, kill, ""); !passed {
				t.Fatalf("%s %s fails on the unmutated tree:\n%s", m.pkg, kill, out)
			}
		}
	}

	for _, m := range ms {
		t.Run(m.name, func(t *testing.T) {
			where := fmt.Sprintf("testdata/mutants.txt:%d", m.line)
			path := filepath.Join(root, filepath.FromSlash(m.file))
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s: the old snippet occurs %d times in %s, want exactly once: update the entry", where, n, m.file)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(path))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, kill := range m.kills {
				if _, passed := runTest(t, root, m.pkg, kill, overlayPath); passed {
					t.Errorf("%s: mutant survived: %s %s passes with %q replaced by %q in %s",
						where, m.pkg, kill, m.old, m.new, m.file)
				}
			}
		})
	}
}

// runTest compiles pkg's tests, through the overlay file when one is
// given, and runs test in pkg's directory. It reports the test's output
// and whether it passed. A package that does not compile, or a test that
// does not exist, fails t: that is a broken entry, not a kill.
func runTest(t *testing.T, root, pkg, test, overlay string) (string, bool) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pkg.test")
	args := []string{"test", "-c", "-o", bin}
	if overlay != "" {
		args = append(args, "-overlay="+overlay)
	}
	build := exec.Command("go", append(args, pkg)...)
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("%s does not compile (a mutant that does not compile is a broken entry, not a kill): %v\n%s", pkg, err, out)
	}
	if _, err := os.Stat(bin); err != nil {
		t.Fatalf("%s has no tests", pkg)
	}
	run := exec.Command(bin, "-test.run=^"+test+"$", "-test.count=1", "-test.timeout=5m")
	run.Dir = filepath.Join(root, filepath.FromSlash(pkg))
	out, err := run.CombinedOutput()
	if strings.Contains(string(out), "no tests to run") {
		t.Fatalf("%s has no test %s", pkg, test)
	}
	return string(out), err == nil
}
