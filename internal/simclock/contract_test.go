package simclock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestModelCodeKeepsTheBatonContract fails when a non-test file of the
// root package, or of internal/ outside this package, holds a go
// statement, a channel type or operation, or a sync.WaitGroup: the three
// things that stall the one running task without a deadlock report
// (DESIGN.md §14, "What the contract forbids"). make vet runs it. cmd/
// is out of scope: the Prometheus listener lives there.
func TestModelCodeKeepsTheBatonContract(t *testing.T) {
	root := filepath.Join("..", "..")
	files, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "simclock" || d.Name() == "testdata"):
			return filepath.SkipDir
		case strings.HasSuffix(path, ".go"):
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
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
				t.Errorf("%s: %s in model code: tasks start with Clock.Go and block only through simclock", fset.Position(n.Pos()), what)
			}
			return true
		})
	}
}
