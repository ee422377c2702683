package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a module whose documents name one thing per way of resolving,
// or not: a definition of non-test code, of a test file, of an external
// test package, a member found through an embedded field, a name of the
// standard library, a pkg.Name opening a call chain or an assignment, a
// test and a -run pattern, an allowed outside name; and one section
// citation per way of resolving, or not.
var fixture = map[string]string{
	"go.mod": "module fix\n\ngo 1.22\n",
	"lib/lib.go": `package lib

// Base is embedded in Shape (DESIGN.md, "Decision").
type Base struct{ Width int }

func (Base) Area() int { return 0 }

// Shape is what New returns; see DESIGN.md,
// "Nope".
type Shape struct {
	Base
	Name string
}

func New() *Shape { return &Shape{} }
`,
	"lib/lib_test.go": `package lib

import "testing"

// HelperOnly is defined by a test file only.
func HelperOnly() {}

func TestNew(t *testing.T) {
	if New() == nil {
		t.Fatal("New")
	}
}

func BenchmarkArea(b *testing.B) {}
`,
	"lib/x_test.go": `package lib_test

import "testing"

type Fake struct{}

func TestOutside(t *testing.T) {}
`,
	"README.md": "# Fixture\n\n`lib.New`, `Shape.Width`, `lib.Shape.Area`, `New()`, `*lib.Shape`,\n" +
		"`lib.Fake`, `lib.HelperOnly`, `os.Exit`, `TestNew`, `Test*`, `KSPSetUp`, `a.md`, `lower`,\n" +
		"`lib.New().Name`, `lib.Base{}.Width = 2`, `os.Args[1:]`.\n\n" +
		"Gone: `lib.Gone`, `Shape.Height`, `TestGone`, `Nowhere`, `lib.Gone(1).Name`, `lib.Vanished = 3`.\n\n" +
		"```bash\ngo test -run 'TestNew|TestMissing' ./lib\ngo test -bench Area -run '^$' ./lib   # BenchmarkArea\n```\n",
	"DESIGN.md":                      "# Design\n\n## Decision\n\nEvidence in EXPERIMENTS.md, \"Evidence\" and\nEXPERIMENTS.md, \"Missing\".\n",
	"EXPERIMENTS.md":                 "# Experiments\n\n## Trajectory\n\n## Evidence\n\n## Orphan\n",
	"scripts/check.sh":               "# the decision (DESIGN.md, \"Decision\")\n",
	"scripts/docnames/allow.txt":     "# outside names\nKSPSetUp\tPETSc's\nStale\tnothing needs it\n",
	".claude/skills/verify/SKILL.md": "Run `go test -run TestOutside ./lib`, and `TestSkillGone`.\n",
}

// TestFixture runs the check on the fixture module and on one whose
// documents all resolve.
func TestFixture(t *testing.T) {
	dir := t.TempDir()
	write := func(files map[string]string) {
		for name, content := range files {
			path := filepath.Join(dir, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(fixture)
	const want = "README.md:7: `lib.Gone` names nothing a Go file of the module defines\n" +
		"README.md:7: `Shape.Height` names nothing a Go file of the module defines\n" +
		"README.md:7: `TestGone` matches no test, benchmark or fuzz target of go test -list\n" +
		"README.md:7: `Nowhere` names nothing a Go file of the module defines\n" +
		"README.md:7: `lib.Gone(1).Name` names nothing a Go file of the module defines\n" +
		"README.md:7: `lib.Vanished = 3` names nothing a Go file of the module defines\n" +
		"README.md:10: `TestMissing` (a -run/-bench/-fuzz alternative) matches no test, benchmark or fuzz target of go test -list\n" +
		".claude/skills/verify/SKILL.md:1: `TestSkillGone` matches no test, benchmark or fuzz target of go test -list\n" +
		"scripts/docnames/allow.txt:3: Stale excuses no span that fails; delete the line\n" +
		"DESIGN.md:5: cites EXPERIMENTS.md, \"Missing\", which is no heading of EXPERIMENTS.md\n" +
		"lib/lib.go:8: cites DESIGN.md, \"Nope\", which is no heading of DESIGN.md\n" +
		"EXPERIMENTS.md: section \"Orphan\" is cited by no decision of DESIGN.md (as EXPERIMENTS.md, \"Orphan\")\n"
	var out strings.Builder
	n, err := run(dir, &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != want || n != strings.Count(want, "\n") {
		t.Errorf("%d lines:\n%s\nwant:\n%s", n, out.String(), want)
	}

	write(map[string]string{
		"lib/lib.go":                     strings.Replace(fixture["lib/lib.go"], `"Nope"`, `"Decision"`, 1),
		"README.md":                      "`lib.New` and `KSPSetUp`.\n",
		"DESIGN.md":                      "## Decision\n\nEXPERIMENTS.md, \"Evidence\".\n",
		"EXPERIMENTS.md":                 "## Trajectory\n\n## Evidence\n",
		"scripts/docnames/allow.txt":     "KSPSetUp\tPETSc's\n",
		".claude/skills/verify/SKILL.md": "`go test -run TestOutside ./lib`\n",
	})
	out.Reset()
	if n, err := run(dir, &out); err != nil || n != 0 || !strings.HasSuffix(out.String(), "all resolve\n") {
		t.Errorf("clean fixture: %d, %v:\n%s", n, err, out.String())
	}
}
