package fibbing

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The map-order check. Go randomises map iteration order, so a range over
// a map whose body sums floats into an outside accumulator, or prints,
// gives output that can differ from run to run; the reports and goldens
// are claimed byte-identical. The check type-checks every non-test
// package under cmd/, internal/ and examples/ and flags, inside each
// range over a map:
//
//   - +=, -=, *= or /= into a float declared outside the range statement,
//     unless an index on the way to it is the range key (each key's own
//     slot is updated once, so order does not matter);
//   - a call to an fmt Print/Fprint function or to a Write* method.
//
// A flagged line is accepted with an "// order-free: <reason>" comment on
// it or ending on the line above it. Dependencies are imported from the
// gc export data `go list -export` leaves in the build cache, which keeps
// the check well under a second on a warm cache.

// listedPackage is the part of `go list -json` the check reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
}

// goTool returns the go command that runs the tests.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}

// goList lists every program package under cmd/, internal/ and examples/
// with its dependencies, plus the standard packages the map-order fixture
// imports. It runs once per test binary: every tree check reads it.
var goList = sync.OnceValues(func() ([]byte, error) {
	var stderr bytes.Buffer
	cmd := exec.Command(goTool(), "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly",
		"./cmd/...", "./internal/...", "./examples/...", "fmt", "strings")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	return out, nil
})

// listPackages returns the packages goList names, and an importer that
// reads every package in their import graph from export data.
func listPackages(t *testing.T, fset *token.FileSet) ([]listedPackage, types.Importer) {
	t.Helper()
	out, err := goList()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []listedPackage
	exports := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		exports[p.ImportPath] = p.Export
		if !p.DepOnly {
			pkgs = append(pkgs, p)
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	return pkgs, imp
}

// mapOrderFinding is one flagged line.
type mapOrderFinding struct {
	pos  token.Position
	what string
}

// checkMapOrder type-checks one package's files and returns the flagged
// lines no order-free comment accepts, and the order-free comments that
// accept no flagged line (stale ones).
func checkMapOrder(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (bad, stale []mapOrderFinding, err error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(path, fset, files, info); err != nil {
		return nil, nil, err
	}
	for _, f := range files {
		// Lines an order-free comment accepts: its own, and the line after
		// its comment group.
		accepts := make(map[int]token.Pos)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				reason, ok := strings.CutPrefix(c.Text, "// order-free:")
				if !ok || strings.TrimSpace(reason) == "" {
					continue
				}
				accepts[fset.Position(c.Pos()).Line] = c.Pos()
				accepts[fset.Position(cg.End()).Line+1] = c.Pos()
			}
		}
		used := make(map[token.Pos]bool)
		flagged := make(map[token.Pos]bool) // nested map ranges see a statement once each
		flag := func(at token.Pos, what string) {
			p := fset.Position(at)
			if c, ok := accepts[p.Line]; ok {
				used[c] = true
			} else if !flagged[at] {
				bad = append(bad, mapOrderFinding{p, what})
			}
			flagged[at] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
				checkMapRange(info, rs, flag)
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "// order-free:") && !used[c.Pos()] {
					stale = append(stale, mapOrderFinding{fset.Position(c.Pos()), "order-free comment on no flagged line"})
				}
			}
		}
	}
	return bad, stale, nil
}

// checkMapRange flags the order-dependent statements of one map range's
// body, nested blocks and function literals included.
func checkMapRange(info *types.Info, rs *ast.RangeStmt, flag func(token.Pos, string)) {
	var key types.Object
	if id, ok := rs.Key.(*ast.Ident); ok {
		key = info.ObjectOf(id)
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			default:
				return true
			}
			lhs := n.Lhs[0]
			if b, ok := info.TypeOf(lhs).Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
				return true
			}
			root, keyed := accumulator(info, lhs, key)
			if keyed || root != nil && rs.Pos() <= root.Pos() && root.Pos() < rs.End() {
				return true // the key's own slot, or declared by the range statement or in its body
			}
			flag(n.Pos(), fmt.Sprintf("float %s into %s", n.Tok, types.ExprString(lhs)))
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
				(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
				flag(n.Pos(), "fmt."+name)
			} else if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal && strings.HasPrefix(name, "Write") {
				flag(n.Pos(), "call to "+types.ExprString(sel))
			}
		}
		return true
	})
}

// accumulator returns the variable an assignment target is rooted at (nil
// when the root is not a variable), and whether an index on the way is the
// range key. For x.f[k].g it looks through .g, [k] and .f to x.
func accumulator(info *types.Info, e ast.Expr, key types.Object) (root types.Object, keyed bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(x), false
		case *ast.IndexExpr:
			if id, ok := x.Index.(*ast.Ident); ok && key != nil && info.ObjectOf(id) == key {
				return nil, true
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// mapOrderFixture holds one of each case the check decides. Lines marked
// "want" must be flagged; no other line may be.
const mapOrderFixture = `package fixture

import (
	"fmt"
	"strings"
)

type acc struct {
	sum float64
	per map[string]float64
}

func f(m map[string]float64, w *strings.Builder, a *acc) float64 {
	total := 0.0
	out := make(map[int]float64)
	for k, v := range m {
		total += v // want
		a.sum -= v // want
		out[len(k)] *= v // want
		a.per[k] += v
		local := 0.0
		local += v
		n := 1
		n += 2
		fmt.Println(k, n, local) // want
		w.WriteString(k) // want
		_ = fmt.Sprint(k)
		// order-free: the fixture's accepted line
		total /= 2
		func() { total += 1 }() // want
	}
	for k := range m {
		for _, x := range []float64{1, 2} {
			out[len(k)] += x // want
		}
		for j := range m {
			out[len(j)] += m[k] // want
		}
	}
	for _, x := range []float64{1, 2} {
		total += x
		fmt.Println(x)
	}
	// order-free: stale, nothing here is flagged
	return total
}
`

// TestMapRangesAreOrderFree runs the check on the fixture, then on every
// program package.
func TestMapRangesAreOrderFree(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, imp := listPackages(t, fset)

	fixture, err := parser.ParseFile(fset, "fixture.go", mapOrderFixture, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	bad, stale, err := checkMapOrder(fset, imp, "fixture", []*ast.File{fixture})
	if err != nil {
		t.Fatal(err)
	}
	var want, got []int
	for i, line := range strings.Split(mapOrderFixture, "\n") {
		if strings.HasSuffix(line, "// want") {
			want = append(want, i+1)
		}
	}
	for _, b := range bad {
		got = append(got, b.pos.Line)
	}
	if !slices.Equal(got, want) || len(stale) != 1 {
		t.Fatalf("fixture: flagged lines %v, want %v; stale comments %v, want one", got, want, stale)
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, p := range pkgs {
		if p.Dir == "" || !strings.HasPrefix(p.Dir, wd) || len(p.GoFiles) == 0 {
			continue // the standard library packages listed for the fixture
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		bad, stale, err := checkMapOrder(fset, imp, p.ImportPath, files)
		if err != nil {
			t.Fatalf("%s: %v", p.ImportPath, err)
		}
		for _, b := range append(bad, stale...) {
			rel, err := filepath.Rel(wd, b.pos.Filename)
			if err != nil {
				rel = b.pos.Filename
			}
			t.Errorf("%s:%d: %s inside a range over a map: use a fixed order, or mark the line // order-free: <reason>", rel, b.pos.Line, b.what)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("checked %d packages; the listing lost the tree", checked)
	}
}
