// Command docnames checks that the prose documents name only what the code
// has. Run it from the module root:
//
//	go run ./scripts/docnames
//
// For every backticked span of README.md, DESIGN.md and the verify skill it
// reports
//
//   - a span shaped like a Go identifier with an exported part (pkg.Name,
//     Type.Member, pkg.Type.Member or a bare exported Name; a leading * or &
//     and a trailing argument list or composite literal are dropped) that
//     names nothing the module's Go files, tests included, define (looked
//     up with go/types, members through embedded fields too) and no name of
//     the standard library;
//   - a pkg.Name of a module package that opens a longer span (a call
//     chain, an index, an assignment) and names nothing that package
//     defines;
//   - a Test…, Benchmark… or Fuzz… name (a trailing * makes it a prefix),
//     or an alternative of a -run, -bench or -fuzz pattern, in a span or a
//     fenced block, that matches nothing `go test -list` lists;
//
// unless the span is a line of scripts/docnames/allow.txt (outside names:
// PETSc, MPI, pTatin3D's C code, instruction mnemonics), one name and one
// reason per line. A line of that list that excuses no span fails too.
// Then, over the Go files outside bench/, scripts/check.sh and the four
// documents, it reports
//
//   - a section cited by file name, comma and quoted title (DESIGN.md or
//     EXPERIMENTS.md) whose title is not a whole heading of that file;
//   - a ## section of EXPERIMENTS.md, but "Trajectory" and "Paper vs.
//     measured", that DESIGN.md does not cite so.
//
// EXPERIMENTS.md's own spans are not checked: its evidence names the code it
// measured. The exit status is 1 when anything is reported.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"

	"ptatin3d/scripts/internal/modsrc"
)

var docs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

const allowFile = "scripts/docnames/allow.txt"

func main() {
	n, err := run(".", os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docnames:", err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}

// run checks the documents of the module at root, prints what fails to w
// and returns how many lines it printed.
func run(root string, w io.Writer) (int, error) {
	allow, err := modsrc.ReadKeep(filepath.Join(root, allowFile))
	if err != nil {
		return 0, err
	}
	idx, err := newIndex(root)
	if err != nil {
		return 0, err
	}
	var fails []string
	bad := func(where, span, why string) {
		if k := allow.Match(span); k != nil {
			k.Used = true
			return
		}
		fails = append(fails, fmt.Sprintf("%s: `%s` %s", where, span, why))
	}
	nspans := 0
	for _, doc := range docs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return 0, err
		}
		for _, s := range spans(doc, string(data)) {
			nspans++
			idx.check(s, bad)
		}
	}
	for _, k := range allow {
		if !k.Used {
			fails = append(fails, fmt.Sprintf("%s:%d: %s excuses no span that fails; delete the line", allowFile, k.Line, k.Pattern))
		}
	}
	ncites, citeFails, err := checkCitations(root)
	if err != nil {
		return 0, err
	}
	fails = append(fails, citeFails...)
	for _, f := range fails {
		fmt.Fprintln(w, f)
	}
	if len(fails) == 0 {
		fmt.Fprintf(w, "docnames: %d documents, %d spans and fence lines, %d section citations: all resolve\n", len(docs), nspans, ncites)
	}
	return len(fails), nil
}

// span is an inline code span, or one line of a fenced block.
type span struct {
	where string // file:line
	text  string
	fence bool
}

var (
	fenceRE   = regexp.MustCompile("^[ \t]*(```|~~~)")
	headingRE = regexp.MustCompile(`^#+ `)
)

// spans returns the inline code spans of a markdown file and the lines of
// its fenced blocks. A span may run over a line break; a paragraph ends an
// unclosed one.
func spans(file, text string) []span {
	var out []span
	fence := false
	buf, start := "", 0
	for i, line := range strings.Split(text, "\n") {
		switch {
		case fenceRE.MatchString(line):
			fence, buf = !fence, ""
			continue
		case fence:
			out = append(out, span{fmt.Sprintf("%s:%d", file, i+1), line, true})
			continue
		case strings.TrimSpace(line) == "":
			buf = ""
			continue
		}
		if buf == "" {
			buf, start = line, i+1
		} else {
			buf += " " + line
		}
		if strings.Count(buf, "`")%2 == 1 {
			continue
		}
		for j, part := range strings.Split(buf, "`") {
			if j%2 == 1 && part != "" {
				out = append(out, span{fmt.Sprintf("%s:%d", file, start), part, false})
			}
		}
		buf = ""
	}
	return out
}

var (
	patternRE  = regexp.MustCompile(`(^|[ \t])-(run|bench|fuzz)[= ]+("[^"]*"|'[^']*'|[^ ]+)`)
	testNameRE = regexp.MustCompile(`\b(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	testSpanRE = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?(/[^ ]*)?$`)
	identRE    = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*){0,2}$`)
	exportedRE = regexp.MustCompile(`(^|\.)[A-Z]`)
	fileRE     = regexp.MustCompile(`\.(md|go|s|sh|txt|json|csv|mod|sum|vtk|vtu|pvd|pprof|chkpt|out)$`)
	callRE     = regexp.MustCompile(`[({].*[)}]$`)
	anchoredRE = regexp.MustCompile(`^\^?[A-Za-z0-9_|]*\$$`)
	pkgNameRE  = regexp.MustCompile(`^[*&]?([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)\b`)
)

// check reports what span s names that the module does not have.
func (x *index) check(s span, bad func(where, span, why string)) {
	const noTest = "matches no test, benchmark or fuzz target of go test -list"
	if s.fence {
		x.patterns(s.where, s.text, bad)
		for _, w := range testNameRE.FindAllString(patternRE.ReplaceAllString(s.text, " "), -1) {
			if !x.listed("^" + w) {
				bad(s.where, w, noTest)
			}
		}
		return
	}
	if patternRE.MatchString(s.text) {
		x.patterns(s.where, s.text, bad)
		return
	}
	if testSpanRE.MatchString(s.text) {
		w, _, _ := strings.Cut(s.text, "/")
		re := "^" + w + "$"
		if strings.HasSuffix(w, "*") {
			re = "^" + strings.TrimSuffix(w, "*")
		}
		if !x.listed(re) {
			bad(s.where, s.text, noTest)
		}
		return
	}
	const undefined = "names nothing a Go file of the module defines"
	id := callRE.ReplaceAllString(strings.TrimLeft(s.text, "*&"), "")
	if !identRE.MatchString(id) {
		// A longer span names at least the pkg.Name it opens with.
		if m := pkgNameRE.FindStringSubmatch(s.text); m != nil && x.pkgs[m[1]] != nil && !x.resolves(m[1:]) {
			bad(s.where, s.text, undefined)
		}
		return
	}
	if !exportedRE.MatchString(id) || fileRE.MatchString(id) {
		return
	}
	if !x.resolves(strings.Split(id, ".")) {
		bad(s.where, s.text, undefined)
	}
}

// patterns reports each alternative of a -run/-bench/-fuzz pattern in
// line that names no listed test. A pattern holding a shell variable is
// skipped; one anchored by a $ is not.
func (x *index) patterns(where, line string, bad func(where, span, why string)) {
	for _, m := range patternRE.FindAllStringSubmatch(line, -1) {
		p := strings.Trim(m[3], `"'`)
		if strings.Contains(p, "$") && !anchoredRE.MatchString(p) {
			continue
		}
		for _, a := range strings.Split(p, "|") {
			a, _, _ = strings.Cut(a, "/")
			switch a {
			case "", "^", "$", "^$", ".", ".*":
				continue
			}
			if !x.listed(a) {
				bad(where, a, "(a -run/-bench/-fuzz alternative) matches no test, benchmark or fuzz target of go test -list")
			}
		}
	}
}

// index is what the documents may name: the module's packages by name,
// the standard library's by name, and the module's tests.
type index struct {
	l     *modsrc.Loader
	pkgs  map[string][]*types.Package // the module's, by package name
	std   map[string][]string         // import paths of the standard library, by package name
	tests []string
}

func newIndex(root string) (*index, error) {
	mod, err := modsrc.ModulePath(root)
	if err != nil {
		return nil, err
	}
	x := &index{l: modsrc.NewLoader(), pkgs: map[string][]*types.Package{}, std: map[string][]string{}}
	x.l.Tests = true
	if err := x.l.Load(root); err != nil {
		return nil, err
	}
	for path, p := range x.l.Pkgs {
		if p.Module != mod {
			continue
		}
		test, xtest, err := x.l.CheckTests(path)
		if err != nil {
			return nil, err
		}
		for _, tp := range []*types.Package{test, xtest} {
			if tp != nil {
				// An external test package goes under the name of the package it tests.
				pn := strings.TrimSuffix(tp.Name(), "_test")
				x.pkgs[pn] = append(x.pkgs[pn], tp)
			}
		}
	}
	list, err := goCmd(root, "list", "-f", "{{.Name}} {{.ImportPath}}", "std")
	if err != nil {
		return nil, err
	}
	for _, line := range list {
		if name, path, ok := strings.Cut(line, " "); ok {
			x.std[name] = append(x.std[name], path)
		}
	}
	list, err = goCmd(root, "test", "-list", ".*", "./...")
	if err != nil {
		return nil, err
	}
	for _, t := range list {
		if testSpanRE.MatchString(t) || strings.HasPrefix(t, "Example") {
			x.tests = append(x.tests, t)
		}
	}
	return x, nil
}

// goCmd runs the go command in dir and returns its output lines.
func goCmd(dir string, args ...string) ([]string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v", strings.Join(args, " "), err)
	}
	return strings.Split(strings.TrimSpace(string(out)), "\n"), nil
}

// listed reports whether a test of the module matches the pattern.
func (x *index) listed(pattern string) bool {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return false
	}
	for _, t := range x.tests {
		if re.MatchString(t) {
			return true
		}
	}
	return false
}

// resolves reports whether a dotted name is defined: Name at package level
// or as a member anywhere in the
// module; pkg.Name (of the module, else of the standard library) or
// Type.Member of a module type; pkg.Type.Member.
func (x *index) resolves(c []string) bool {
	switch len(c) {
	case 1:
		for _, ps := range x.pkgs {
			for _, p := range ps {
				if p.Scope().Lookup(c[0]) != nil {
					return true
				}
				for _, name := range p.Scope().Names() {
					if lookup([]*types.Package{p}, name, c[0]) {
						return true
					}
				}
			}
		}
		return false
	case 2:
		if ps := x.pkgs[c[0]]; ps != nil {
			return lookup(ps, c[1], "")
		}
		for _, ps := range x.pkgs {
			if lookup(ps, c[0], c[1]) {
				return true
			}
		}
		return lookup(x.stdPkgs(c[0]), c[1], "")
	default:
		ps := x.pkgs[c[0]]
		if ps == nil {
			ps = x.stdPkgs(c[0])
		}
		return lookup(ps, c[1], c[2])
	}
}

// stdPkgs imports the standard library's packages of a name.
func (x *index) stdPkgs(name string) []*types.Package {
	var ps []*types.Package
	for _, path := range x.std[name] {
		if p, err := x.l.Import(path); err == nil {
			ps = append(ps, p)
		}
	}
	return ps
}

// lookup reports whether one of the packages defines name at package
// level and, when member is not empty, name is a type with that field or
// method.
func lookup(ps []*types.Package, name, member string) bool {
	for _, p := range ps {
		o := p.Scope().Lookup(name)
		if o == nil {
			continue
		}
		if member == "" {
			return true
		}
		if tn, ok := o.(*types.TypeName); ok {
			if m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, p, member); m != nil {
				return true
			}
		}
	}
	return false
}

// A section citation: the file, and the title between quotes.
var citeRE = regexp.MustCompile(`(DESIGN|EXPERIMENTS)\.md,? "([^"]+)"`)

// checkCitations reports each cited section that is not a heading of its
// file and each EXPERIMENTS.md section that DESIGN.md does not cite, and
// returns how many citations it read.
func checkCitations(root string) (int, []string, error) {
	headings := map[string]map[string]bool{}
	var sections []string // the ## headings of EXPERIMENTS.md
	for _, f := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return 0, nil, err
		}
		headings[f] = map[string]bool{}
		for _, s := range headingLines(string(data)) {
			title := strings.TrimSpace(strings.TrimLeft(s, "#"))
			headings[f][title] = true
			if f == "EXPERIMENTS.md" && strings.HasPrefix(s, "## ") {
				sections = append(sections, title)
			}
		}
	}
	files := []string{"scripts/check.sh", "README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root: no error
		if d.IsDir() && rel != "." && (rel == "bench" || d.Name()[0] == '.') {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(rel, ".go") {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	var fails []string
	n := 0
	designCites := map[string]bool{}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return 0, nil, err
		}
		ps, err := paragraphs(f, data)
		if err != nil {
			return 0, nil, err
		}
		for _, p := range ps {
			for _, m := range citeRE.FindAllStringSubmatch(p.text, -1) {
				n++
				file, title := m[1]+".md", strings.Join(strings.Fields(m[2]), " ")
				if !headings[file][title] {
					fails = append(fails, fmt.Sprintf("%s: cites %s, %q, which is no heading of %s", p.where, file, title, file))
				}
				if f == "DESIGN.md" && file == "EXPERIMENTS.md" {
					designCites[title] = true
				}
			}
		}
	}
	for _, t := range sections {
		if t != "Trajectory" && t != "Paper vs. measured" && !designCites[t] {
			fails = append(fails, fmt.Sprintf("EXPERIMENTS.md: section %q is cited by no decision of DESIGN.md (as EXPERIMENTS.md, %q)", t, t))
		}
	}
	return n, fails, nil
}

// headingLines returns the lines of a markdown file that are headings
// outside fenced blocks.
func headingLines(text string) []string {
	var out []string
	fence := false
	for _, line := range strings.Split(text, "\n") {
		if fenceRE.MatchString(line) {
			fence = !fence
		} else if !fence && headingRE.MatchString(line) {
			out = append(out, line)
		}
	}
	return out
}

// paragraphs returns the runs of text a citation may break over: the
// comment groups of a Go file, the blank-line-separated paragraphs of any
// other (a shell script's # markers dropped).
func paragraphs(file string, data []byte) ([]span, error) {
	var out []span
	if strings.HasSuffix(file, ".go") {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, data, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, cg := range f.Comments {
			where := fmt.Sprintf("%s:%d", file, fset.Position(cg.Pos()).Line)
			out = append(out, span{where, strings.ReplaceAll(cg.Text(), "\n", " "), false})
		}
		return out, nil
	}
	buf, start := "", 0
	for i, line := range strings.Split(string(data)+"\n", "\n") {
		t := strings.TrimLeft(line, " \t")
		if t == "" {
			if buf != "" {
				out = append(out, span{fmt.Sprintf("%s:%d", file, start), buf, false})
			}
			buf = ""
			continue
		}
		if strings.HasSuffix(file, ".sh") && strings.HasPrefix(t, "#") {
			line = strings.TrimPrefix(strings.TrimPrefix(t, "#"), " ")
		}
		if buf == "" {
			buf, start = line, i+1
		} else {
			buf += " " + line
		}
	}
	return out, nil
}
