// Command unreached lists the functions and methods of a module's
// internal/ and cmd/ packages that none of its non-test code reaches: the
// type-checked form of "grep for callers", which a name collision cannot
// fool. Run it from the module root:
//
//	go run ./scripts/unreached
//
// Users are the non-test files of every package of the module and of the
// modules nested in it (bench/), as the host platform's build constraints
// select them. The roots are every main and init function and every
// package-level initialiser; a function is reached when a reached function
// (or a root) names it — called or taken as a value — and a method also
// when any interface type in scope declares a method of its name, whether
// or not a value of its receiver ever meets that interface. So nothing is
// reported that a run could execute; the converse does not hold (a branch
// the values never take still reaches its callees).
//
// What stays although unreached is listed in the keep file, one name and
// one reason per line; a kept function is a root. The exit status is 1 when
// an unreached function is not listed or a line of the list matches no
// unreached function. Only the standard library is used: packages of the
// module are checked from their parsed files, the standard library comes
// through go/importer's "source" importer, nothing is downloaded.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	n, err := run(".", "scripts/unreached/keep.txt", os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}

// pkg is one directory of non-test Go files; tpkg and info are filled the
// first time something imports it.
type pkg struct {
	files []*ast.File
	tpkg  *types.Package
	info  *types.Info
}

// loader is the importer of a run: the module's packages from their parsed
// files, everything else from GOROOT's source.
type loader struct {
	fset *token.FileSet
	pkgs map[string]*pkg
	std  types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	p := l.pkgs[path]
	if p == nil {
		return l.std.Import(path)
	}
	if p.tpkg == nil {
		p.info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		var err error
		if p.tpkg, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info); err != nil {
			return nil, err
		}
	}
	return p.tpkg, nil
}

// modulePath reads the module line of dir/go.mod.
func modulePath(dir string) (string, error) {
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

// load parses every package directory under root. A directory with its own
// go.mod is a nested module and takes its import paths from that file.
func (l *loader) load(root string) error {
	mods := map[string]string{} // directory -> import path
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != root && (n == "testdata" || n[0] == '.' || n[0] == '_') {
			return filepath.SkipDir
		}
		ipath := filepath.ToSlash(filepath.Join(mods[filepath.Dir(path)], d.Name()))
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			if ipath, err = modulePath(path); err != nil {
				return err
			}
		}
		mods[path] = ipath
		names, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		p := new(pkg)
		for _, name := range names {
			if ok, err := build.Default.MatchFile(path, filepath.Base(name)); err != nil {
				return err
			} else if !ok || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if p.files != nil {
			l.pkgs[ipath] = p
		}
		return nil
	})
}

// fn is a declared function or method and what its declaration names.
type fn struct {
	name    string // types.Func.FullName less the module path: how the keep file spells it
	pos     token.Position
	lines   int
	report  bool // declared under internal/ or cmd/
	callees []*types.Func
}

// run prints the unlisted unreached functions of the module at root and
// the stale lines of the keep file, and returns how many lines it printed.
func run(root, keepFile string, w io.Writer) (int, error) {
	mod, err := modulePath(root)
	if err != nil {
		return 0, err
	}
	kept, err := readKeep(keepFile)
	if err != nil {
		return 0, err
	}
	// cgo off: the source importer then needs no C toolchain.
	build.Default.CgoEnabled = false
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.load(root); err != nil {
		return 0, err
	}

	fns := map[*types.Func]*fn{}
	var roots []*types.Func
	ifaceNames := map[string]bool{"Error": true} // the universe's error
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	for path, p := range l.pkgs {
		if _, err := l.Import(path); err != nil {
			return 0, err
		}
		// Interfaces in scope: every type expression of the package, and
		// what the packages it imports export (fmt.Stringer is satisfied
		// without being named).
		for _, tv := range p.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, imp := range p.tpkg.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
		rel := strings.TrimPrefix(path, mod+"/")
		report := strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
		for _, file := range p.files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					// A package-level initialiser runs at start-up.
					roots = append(roots, funcsNamed(decl, p.info)...)
					continue
				}
				obj := p.info.Defs[fd.Name].(*types.Func)
				start := fd.Pos()
				if fd.Doc != nil {
					start = fd.Doc.Pos()
				}
				fns[obj] = &fn{
					name:    strings.ReplaceAll(obj.FullName(), mod+"/", ""),
					pos:     l.fset.Position(fd.Pos()),
					lines:   l.fset.Position(fd.End()).Line - l.fset.Position(start).Line + 1,
					report:  report,
					callees: funcsNamed(fd, p.info),
				}
				if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && p.tpkg.Name() == "main") {
					roots = append(roots, obj)
				}
			}
		}
	}

	reached := map[*types.Func]bool{}
	var visit func(o *types.Func)
	visit = func(o *types.Func) {
		if f := fns[o]; f != nil && !reached[o] {
			reached[o] = true
			for _, c := range f.callees {
				visit(c)
			}
		}
	}
	for _, o := range roots {
		visit(o)
	}
	for o := range fns {
		if o.Type().(*types.Signature).Recv() != nil && ifaceNames[o.Name()] {
			visit(o)
		}
	}
	// A keep line must hold something back: match against what the roots
	// alone leave unreached, then let the kept functions reach theirs.
	var keptFns []*types.Func
	for o, f := range fns {
		if k := kept.match(f.name); k != nil && !reached[o] {
			k.used = true
			keptFns = append(keptFns, o)
		}
	}
	for _, o := range keptFns {
		visit(o)
	}

	var out []string
	for o, f := range fns {
		if f.report && !reached[o] {
			out = append(out, fmt.Sprintf("%s:%d: %s (%d lines)", f.pos.Filename, f.pos.Line, f.name, f.lines))
		}
	}
	sort.Strings(out)
	for _, k := range kept {
		if !k.used {
			out = append(out, fmt.Sprintf("%s:%d: %s matches no unreached function", keepFile, k.line, k.pattern))
		}
	}
	for _, s := range out {
		fmt.Fprintln(w, s)
	}
	return len(out), nil
}

// funcsNamed returns the declared functions and methods (generic ones as
// their origin) that the identifiers under n resolve to.
func funcsNamed(n ast.Node, info *types.Info) []*types.Func {
	var out []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o, ok := info.Uses[id].(*types.Func); ok {
				out = append(out, o.Origin())
			}
		}
		return true
	})
	return out
}

// keepLine is one entry of the keep file: a function's name, or a prefix
// of names when it ends in '*', and (unread here, required) the reason.
type keepLine struct {
	pattern string
	line    int
	used    bool
}

type keepList []*keepLine

func (ks keepList) match(name string) *keepLine {
	for _, k := range ks {
		if k.pattern == name || strings.HasSuffix(k.pattern, "*") && strings.HasPrefix(name, k.pattern[:len(k.pattern)-1]) {
			return k
		}
	}
	return nil
}

// readKeep parses "name reason…" lines; blank lines and # comments pass.
func readKeep(name string) (keepList, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var ks keepList
	for i, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: %s is kept without a reason", name, i+1, fields[0])
		}
		ks = append(ks, &keepLine{pattern: fields[0], line: i + 1})
	}
	return ks, nil
}
