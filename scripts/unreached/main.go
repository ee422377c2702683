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
// unreached function. The module is type-checked by scripts/internal/modsrc,
// from source and with the standard library only.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	"ptatin3d/scripts/internal/modsrc"
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
	mod, err := modsrc.ModulePath(root)
	if err != nil {
		return 0, err
	}
	kept, err := modsrc.ReadKeep(keepFile)
	if err != nil {
		return 0, err
	}
	l := modsrc.NewLoader()
	if err := l.Load(root); err != nil {
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
	for path, p := range l.Pkgs {
		if _, err := l.Import(path); err != nil {
			return 0, err
		}
		// Interfaces in scope: every type expression of the package, and
		// what the packages it imports export (fmt.Stringer is satisfied
		// without being named).
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, imp := range p.Types.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
		rel := strings.TrimPrefix(path, mod+"/")
		report := strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					// A package-level initialiser runs at start-up.
					roots = append(roots, funcsNamed(decl, p.Info)...)
					continue
				}
				obj := p.Info.Defs[fd.Name].(*types.Func)
				start := fd.Pos()
				if fd.Doc != nil {
					start = fd.Doc.Pos()
				}
				fns[obj] = &fn{
					name:    strings.ReplaceAll(obj.FullName(), mod+"/", ""),
					pos:     l.Fset.Position(fd.Pos()),
					lines:   l.Fset.Position(fd.End()).Line - l.Fset.Position(start).Line + 1,
					report:  report,
					callees: funcsNamed(fd, p.Info),
				}
				if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && p.Types.Name() == "main") {
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
		if k := kept.Match(f.name); k != nil && !reached[o] {
			k.Used = true
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
		if !k.Used {
			out = append(out, fmt.Sprintf("%s:%d: %s matches no unreached function", keepFile, k.Line, k.Pattern))
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
