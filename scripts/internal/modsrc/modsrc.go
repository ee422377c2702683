// Package modsrc is what the module's source checks under scripts/ share:
// a loader that type-checks the module's packages from their parsed files
// with the standard library only (nothing is downloaded), and the reader of
// "name reason…" lists whose unused lines fail.
package modsrc

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Pkg is one directory of Go files; Types and Info, of the non-test files,
// are filled the first time something imports it.
type Pkg struct {
	Module     string // the path of the module (root or nested) the directory belongs to
	Files      []*ast.File
	TestFiles  []*ast.File // _test.go files of the package itself, read when Loader.Tests is set
	XTestFiles []*ast.File // _test.go files of its external test package, likewise
	Types      *types.Package
	Info       *types.Info
}

// Loader is the importer of a run: the module's packages from their parsed
// files, everything else from GOROOT's source.
type Loader struct {
	Fset  *token.FileSet
	Pkgs  map[string]*Pkg // by import path
	Tests bool            // whether Load reads _test.go files too
	std   types.Importer
}

// NewLoader returns a loader with no packages; Load adds them.
func NewLoader() *Loader {
	// cgo off: the source importer then needs no C toolchain.
	build.Default.CgoEnabled = false
	l := &Loader{Fset: token.NewFileSet(), Pkgs: map[string]*Pkg{}}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	return l
}

func (l *Loader) Import(path string) (*types.Package, error) {
	p := l.Pkgs[path]
	if p == nil {
		return l.std.Import(path)
	}
	if p.Types == nil {
		p.Info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		var err error
		if p.Types, err = (&types.Config{Importer: l}).Check(path, l.Fset, p.Files, p.Info); err != nil {
			return nil, err
		}
	}
	return p.Types, nil
}

// CheckTests type-checks the package at path with its tests: its files
// with its in-package tests, and its external test package (nil when it has
// none), which imports that variant. Other imports are the non-test
// packages. go test also rebuilds those of them that import the package
// against its test variant; here they keep the non-test one, so the
// external test package can hold two types of one name, and the type
// errors that makes are dropped. Its declarations are whole regardless.
func (l *Loader) CheckTests(path string) (test, xtest *types.Package, err error) {
	p := l.Pkgs[path]
	files := append(append([]*ast.File(nil), p.Files...), p.TestFiles...)
	if test, err = (&types.Config{Importer: l}).Check(path, l.Fset, files, nil); err != nil || p.XTestFiles == nil {
		return test, nil, err
	}
	imp := importerFunc(func(ipath string) (*types.Package, error) {
		if ipath == path {
			return test, nil
		}
		return l.Import(ipath)
	})
	xtest, _ = (&types.Config{Importer: imp, Error: func(error) {}}).Check(path+"_test", l.Fset, p.XTestFiles, nil)
	return test, xtest, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ModulePath reads the module line of dir/go.mod.
func ModulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", dir)
}

// Load parses every package directory under root, as the host platform's
// build constraints select its files, and without Tests no _test.go file.
// A directory with its own go.mod is a nested module and takes its import
// paths from that file.
func (l *Loader) Load(root string) error {
	type dirMod struct{ ipath, mod string }
	mods := map[string]dirMod{} // directory -> import path, module path
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != root && (n == "testdata" || n[0] == '.' || n[0] == '_') {
			return filepath.SkipDir
		}
		parent := mods[filepath.Dir(path)]
		dm := dirMod{filepath.ToSlash(filepath.Join(parent.ipath, d.Name())), parent.mod}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			if dm.ipath, err = ModulePath(path); err != nil {
				return err
			}
			dm.mod = dm.ipath
		}
		mods[path] = dm
		names, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		p := &Pkg{Module: dm.mod}
		for _, name := range names {
			test := strings.HasSuffix(name, "_test.go")
			if ok, err := build.Default.MatchFile(path, filepath.Base(name)); err != nil {
				return err
			} else if !ok || test && !l.Tests {
				continue
			}
			f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			switch {
			case !test:
				p.Files = append(p.Files, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				p.XTestFiles = append(p.XTestFiles, f)
			default:
				p.TestFiles = append(p.TestFiles, f)
			}
		}
		if p.Files != nil || p.TestFiles != nil || p.XTestFiles != nil {
			l.Pkgs[dm.ipath] = p
		}
		return nil
	})
}

// KeepLine is one entry of a list: a name, or a prefix of names when it
// ends in '*', and (unread here, required) the reason.
type KeepLine struct {
	Pattern string
	Line    int
	Used    bool
}

type KeepList []*KeepLine

// Match returns the first line that matches name, or nil.
func (ks KeepList) Match(name string) *KeepLine {
	for _, k := range ks {
		if k.Pattern == name || strings.HasSuffix(k.Pattern, "*") && strings.HasPrefix(name, k.Pattern[:len(k.Pattern)-1]) {
			return k
		}
	}
	return nil
}

// ReadKeep parses "name reason…" lines; blank lines and # comments pass.
func ReadKeep(name string) (KeepList, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var ks KeepList
	for i, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: %s is listed without a reason", name, i+1, fields[0])
		}
		ks = append(ks, &KeepLine{Pattern: fields[0], Line: i + 1})
	}
	return ks, nil
}
