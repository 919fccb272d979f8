package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// compute are the directories of the compute stack and its commands.
var compute = []string{"internal", "cmd"}

// TestOneSignaturePerOperation keeps each operation to one exported
// signature: no exported function or method XCtx under internal/ or
// cmd/ may have an exported sibling X (same package, same receiver)
// that would only call it with context.Background(). Callers without a
// request context pass context.Background() themselves.
func TestOneSignaturePerOperation(t *testing.T) {
	type key struct{ dir, recv, name string }
	decls := map[key]string{} // exported func -> position
	eachSource(t, compute, func(fset *token.FileSet, path string, f *ast.File) {
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
	})
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

// TestNoPackageAtomics keeps telemetry on instances: no non-test file
// under internal/ or cmd/ may declare a package-level variable of a
// sync/atomic type, because a process-wide counter makes every test
// that reads it depend on what ran before it and beside it.
func TestNoPackageAtomics(t *testing.T) {
	allowed := map[string]bool{
		// The process default worker count is a setting, not a
		// counter; moving it onto instances is a later step.
		"internal/par.defaultWorkers": true,
	}
	eachSource(t, compute, func(fset *token.FileSet, path string, f *ast.File) {
		pkg := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"sync/atomic"` {
				pkg = "atomic"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			return
		}
		// isAtomic reports whether e names a sync/atomic type, or
		// builds a value of one (T{}, new(T), &T{}).
		var isAtomic func(e ast.Expr) bool
		isAtomic = func(e ast.Expr) bool {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				id, ok := x.X.(*ast.Ident)
				return ok && id.Name == pkg
			case *ast.StarExpr:
				return isAtomic(x.X)
			case *ast.IndexExpr: // atomic.Pointer[T]
				return isAtomic(x.X)
			case *ast.UnaryExpr:
				return isAtomic(x.X)
			case *ast.CompositeLit:
				return isAtomic(x.Type)
			case *ast.CallExpr:
				id, ok := x.Fun.(*ast.Ident)
				return ok && id.Name == "new" && len(x.Args) == 1 && isAtomic(x.Args[0])
			}
			return false
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					atomicVar := vs.Type != nil && isAtomic(vs.Type)
					if i < len(vs.Values) {
						atomicVar = atomicVar || isAtomic(vs.Values[i])
					}
					if atomicVar && !allowed[filepath.ToSlash(filepath.Dir(path))+"."+name.Name] {
						t.Errorf("%s: package-level atomic %s; keep counters on the instance they describe", fset.Position(name.Pos()), name.Name)
					}
				}
			}
		}
	})
}

// TestOneRequestLifecycle keeps modeld's request lifecycle written
// once: no non-test file under internal/service may derive a handler
// deadline (deadlineCtx), take worker tokens (queue.Acquire) or admit
// a workload (pool.GetBuiltCtx) outside the lifecycle's own functions,
// so a new endpoint supplies its parse and compute steps and nothing
// else.
func TestOneRequestLifecycle(t *testing.T) {
	allowed := map[string]bool{"lifecycle": true, "admit": true}
	steps := []string{"deadlineCtx", "queue.Acquire", "pool.GetBuiltCtx"}
	seen := map[string]bool{}
	eachSource(t, compute, func(fset *token.FileSet, path string, f *ast.File) {
		if filepath.ToSlash(filepath.Dir(path)) != "internal/service" {
			return
		}
		for _, decl := range f.Decls {
			owner := "" // package-level declarations belong to no function
			if fn, ok := decl.(*ast.FuncDecl); ok {
				owner = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				step := ""
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					step = fun.Name
				case *ast.SelectorExpr:
					if recv, ok := fun.X.(*ast.SelectorExpr); ok {
						step = recv.Sel.Name + "." + fun.Sel.Name
					}
				}
				if !slices.Contains(steps, step) {
					return true
				}
				seen[step] = true
				if !allowed[owner] {
					t.Errorf("%s: %s calls %s outside the request lifecycle", fset.Position(call.Pos()), owner, step)
				}
				return true
			})
		}
	})
	for _, step := range steps {
		if !seen[step] {
			t.Errorf("no call to %s found under internal/service: run from the module root, or update the guard", step)
		}
	}
}

// TestTracetestOnlyInTests keeps the record adapter out of the
// program: no non-test file under internal/, cmd/, examples/ or bench/
// may import internal/trace/tracetest, so every trace reader walks the
// chunks' columns.
func TestTracetestOnlyInTests(t *testing.T) {
	eachSource(t, []string{"internal", "cmd", "examples", "bench"}, func(fset *token.FileSet, path string, f *ast.File) {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/trace/tracetest"` {
				t.Errorf("%s: imports internal/trace/tracetest, which only tests may use", fset.Position(imp.Pos()))
			}
		}
	})
}

// TestOneArtifactSurface keeps the store's typed operations on
// *artifact.Store alone: no non-test file under internal/, cmd/,
// examples/ or bench/ outside internal/artifact may declare a method
// (on a type or in an interface) named after one of them. Artifact I/O
// policy plugs in as an artifact.Layer instead of a forwarding
// wrapper.
func TestOneArtifactSurface(t *testing.T) {
	ops := []string{"LoadWorkload", "SaveWorkload", "LoadMemPlane", "LoadMemPlanes", "SaveMemPlane", "SaveMemPlaneAlias", "LoadBranchPlane", "SaveBranchPlane"}
	onStore := map[string]bool{}
	eachSource(t, []string{"internal", "cmd", "examples", "bench"}, func(fset *token.FileSet, path string, f *ast.File) {
		inArtifact := filepath.ToSlash(filepath.Dir(path)) == "internal/artifact"
		ast.Inspect(f, func(n ast.Node) bool {
			var names []*ast.Ident
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Recv == nil {
					return false
				}
				if inArtifact && receiverType(x.Recv.List[0].Type) == "Store" && slices.Contains(ops, x.Name.Name) {
					onStore[x.Name.Name] = true
				}
				names = []*ast.Ident{x.Name}
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					names = append(names, m.Names...)
				}
			}
			for _, name := range names {
				if !inArtifact && slices.Contains(ops, name.Name) {
					t.Errorf("%s: declares %s; artifact I/O policy belongs in an artifact.Layer on the store", fset.Position(name.Pos()), name.Name)
				}
			}
			return true
		})
	})
	for _, op := range ops {
		if !onStore[op] {
			t.Errorf("no (*artifact.Store).%s found: run from the module root, or update the guard", op)
		}
	}
}

// eachSource parses every non-test Go file under the directories tops
// and hands it to fn.
func eachSource(t *testing.T, tops []string, fn func(fset *token.FileSet, path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, top := range tops {
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			fn(fset, path, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
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
