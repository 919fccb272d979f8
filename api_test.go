package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOneSignaturePerOperation keeps each operation to one exported
// signature: no exported function or method XCtx under internal/ or
// cmd/ may have an exported sibling X (same package, same receiver)
// that would only call it with context.Background(). Callers without a
// request context pass context.Background() themselves.
func TestOneSignaturePerOperation(t *testing.T) {
	type key struct{ dir, recv, name string }
	decls := map[key]string{} // exported func -> position
	fset := token.NewFileSet()
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				k := key{dir: filepath.Dir(path), name: fn.Name.Name}
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					k.recv = receiverType(fn.Recv.List[0].Type)
				}
				decls[k] = fset.Position(fn.Pos()).String()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found: run from the module root")
	}
	var twins []string
	for k, pos := range decls {
		base, ok := strings.CutSuffix(k.name, "Ctx")
		if !ok || base == "" {
			continue
		}
		if twin, ok := decls[key{k.dir, k.recv, base}]; ok {
			twins = append(twins, twin+": "+qualified(k.recv, base)+" duplicates "+qualified(k.recv, k.name)+" at "+pos)
		}
	}
	sort.Strings(twins)
	for _, msg := range twins {
		t.Error(msg)
	}
}

// receiverType names a method receiver's base type: T for T, *T, T[P]
// and *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func qualified(recv, name string) string {
	if recv == "" {
		return name
	}
	return "(" + recv + ")." + name
}
