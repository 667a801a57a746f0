package simclock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestModelCodeKeepsTheBatonContract fails when a non-test file of the
// root package, of cmd/, or of internal/ outside this package, holds a go
// statement, a channel type or operation, or a sync.WaitGroup: the three
// things that stall the one running task without a deadlock report
// (DESIGN.md §14, "What the contract forbids"). make vet runs it.
func TestModelCodeKeepsTheBatonContract(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range parseModelFiles(t, fset, "simclock") {
		ast.Inspect(f, func(n ast.Node) bool {
			var what string
			switch n := n.(type) {
			case *ast.GoStmt:
				what = "go statement"
			case *ast.ChanType:
				what = "channel type"
			case *ast.SendStmt:
				what = "channel send"
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					what = "channel receive"
				}
			case *ast.SelectStmt:
				what = "select statement"
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" && n.Sel.Name == "WaitGroup" {
					what = "sync.WaitGroup"
				}
			}
			if what != "" {
				t.Errorf("%s: %s in model code: tasks start with Virtual.Go and block only through simclock", fset.Position(n.Pos()), what)
			}
			return true
		})
	}
}

// syncAllowed names what of package sync model code may use: Pool, which
// no task holds across a switch (fabric's is shared across clocks), and
// Locker, the interface NewCond takes. sync/atomic is another package.
var syncAllowed = []string{"Pool", "Locker"}

// TestModelCodeDeclaresNoMutex fails when a non-test file of the root
// package, of cmd/ or of internal/ names anything of package sync outside
// syncAllowed: a Mutex, RWMutex, Once or Cond. State that only the tasks
// of one clock touch needs no lock: the clock runs one task at a time and
// switches only where a task blocks (DESIGN.md §14). A task that blocks on
// a real lock another task holds stalls the run without a deadlock
// report. The clock itself is covered too: Run's caller owns it for the
// whole run. make vet runs it.
func TestModelCodeDeclaresNoMutex(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range parseModelFiles(t, fset) {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sync" && !slices.Contains(syncAllowed, sel.Sel.Name) {
					t.Errorf("%s: sync.%s in model code: one task runs at a time, so clock-owned state needs no lock", fset.Position(n.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// parseModelFiles parses the non-test files of the root package, of cmd/
// and of internal/, skipping testdata and the directories named skip.
func parseModelFiles(t *testing.T, fset *token.FileSet, skip ...string) []*ast.File {
	t.Helper()
	root := filepath.Join("..", "..")
	paths, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"cmd", "internal"} {
		err = filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && (d.Name() == "testdata" || slices.Contains(skip, d.Name())):
				return filepath.SkipDir
			case strings.HasSuffix(path, ".go"):
				paths = append(paths, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}
