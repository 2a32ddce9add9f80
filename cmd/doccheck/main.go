// Command doccheck enforces two contracts on exported API. On the packages
// it is pointed at, every exported identifier — types, functions, methods,
// package-level constants and variables — must carry a godoc comment, and
// every package must have a package comment. Across the whole module, run
// from its root, every exported package-level function declared in a
// non-test file must be referenced from some non-test file: a function
// only tests call is API nothing uses. The root package (the public API)
// and cmd/bench are exempt from the second check; methods are left out of
// it, because a method can be used only through an interface, which a
// name-based check cannot see. doccheck exits non-zero listing each
// violation, so `make doccheck` fails a PR that adds undocumented or
// unused exported API.
//
// Usage:
//
//	doccheck [package-dir ...]   (default: internal/rpc internal/coord)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"internal/rpc", "internal/coord"}
	}
	bad := 0
	for _, dir := range dirs {
		bad += checkDir(dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented exported identifiers\n", bad)
	}
	unused := checkUnused()
	if unused > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported functions no non-test file uses\n", unused)
	}
	if bad+unused > 0 {
		os.Exit(1)
	}
}

// checkUnused parses every non-test Go file of the module rooted at the
// working directory and reports each exported package-level function that
// no non-test file references by name, outside the root package and
// cmd/bench. The match is by name
// alone, so a function counts as used when any identifier anywhere shares
// its name: the check can miss an unused function, never flag a used one.
// Returns the violation count.
func checkUnused() int {
	fset := token.NewFileSet()
	uses := map[string]int{}
	var decls []*ast.FuncDecl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		exempt := dir == "." || dir == "cmd/bench" || strings.HasPrefix(dir, "cmd/bench/")
		declared := map[*ast.Ident]bool{}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				declared[fd.Name] = true
				if fd.Recv == nil && fd.Name.IsExported() && !exempt {
					decls = append(decls, fd)
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		return 1
	}
	bad := 0
	for _, fd := range decls {
		if uses[fd.Name.Name] == 0 {
			p := fset.Position(fd.Pos())
			fmt.Fprintf(os.Stderr, "%s:%d: exported function %s is used by no non-test file\n", p.Filename, p.Line, fd.Name.Name)
			bad++
		}
	}
	return bad
}

// checkDir parses one package directory (tests excluded) and reports every
// exported identifier without a doc comment. Returns the violation count.
func checkDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
		return 1
	}
	bad := 0
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		fmt.Fprintf(os.Stderr, "%s:%d: exported %s %s has no doc comment\n", p.Filename, p.Line, what, name)
		bad++
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, file := range pkg.Files {
			if file.Doc != nil {
				hasPkgDoc = true
			}
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						report(d.Pos(), "function", funcName(d))
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil {
								report(sp.Pos(), "type", sp.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								if n.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
									report(n.Pos(), "value", n.Name)
								}
							}
						}
					}
				}
			}
		}
		if !hasPkgDoc {
			fmt.Fprintf(os.Stderr, "%s (package %s): no package comment\n", dir, pkg.Name)
			bad++
		}
	}
	return bad
}

// funcName renders a function or method name with its receiver type.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}
