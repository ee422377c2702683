package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a module with one function per way of being reached, or not,
// a nested module as a user, a keep file and a stale one.
var fixture = map[string]string{
	"go.mod":       "module fix\n\ngo 1.22\n",
	"bench/go.mod": "module fix/bench\n\ngo 1.22\n\nrequire fix v0.0.0\n\nreplace fix => ../\n",
	"bench/main.go": `package main

import "fix/internal/lib"

func main() { lib.OnlyBench() }
`,
	"cmd/tool/main.go": `package main

import (
	"fmt"

	"fix/internal/lib"
)

func main() {
	var s lib.Shape = lib.Sq{Side: 2}
	fmt.Println(lib.Used(s))
}
`,
	"internal/lib/lib.go": `package lib

// Shape declares Area, so every method named Area counts as reached.
type Shape interface{ Area() float64 }

type Sq struct{ Side float64 }

// Area is reached through Shape only.
func (s Sq) Area() float64 { return s.Side * s.Side }

// Perimeter is called by nothing and no interface declares it.
func (s Sq) Perimeter() float64 { return 4 * s.Side }

// String is reached through fmt.Stringer, which nothing here names.
func (s Sq) String() string { return "sq" }

// Used is called by cmd/tool.
func Used(s Shape) float64 { return helper(s) }

func helper(s Shape) float64 { return s.Area() }

// Unused is called by its own test only.
func Unused() int {
	return onlyUnused()
}

func onlyUnused() int { return 1 }

// OnlyBench is called by the nested module.
func OnlyBench() {}

// Kept is listed in keep.txt; keptHelper is reached through it.
func Kept() int { return keptHelper() }

func keptHelper() int { return 2 }

var table = map[string]func() int{"a": fromInitialiser}

func fromInitialiser() int { return 3 }
`,
	"internal/lib/lib_test.go": `package lib

import "testing"

func TestUnused(t *testing.T) {
	if Unused() != 1 || table["a"]() != 3 {
		t.Fatal("Unused")
	}
}
`,
	"keep.txt":       "# the fixture's keep file\ninternal/lib.Kept\tkept for the test\n",
	"keep-stale.txt": "internal/lib.Kept\tkept for the test\ninternal/lib.Used\treached anyway: a stale line\ninternal/lib.Gone*\tmatches nothing\n",
}

// TestFixture runs the pass on the fixture module: a function is reached
// from a main (of the module or of a nested one), from a package-level
// initialiser, through an interface that declares its name (fmt.Stringer
// included) or through a kept function; a test is not a user; what is left
// is printed with its size, and so is a keep line that holds nothing back.
func TestFixture(t *testing.T) {
	dir := t.TempDir()
	for name, content := range fixture {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const unreached = `internal/lib/lib.go:12: (internal/lib.Sq).Perimeter (2 lines)
internal/lib/lib.go:23: internal/lib.Unused (4 lines)
internal/lib/lib.go:27: internal/lib.onlyUnused (1 lines)
`
	for keep, want := range map[string]string{
		"keep.txt": unreached,
		"keep-stale.txt": unreached + `keep-stale.txt:2: internal/lib.Used matches no unreached function
keep-stale.txt:3: internal/lib.Gone* matches no unreached function
`,
	} {
		var out strings.Builder
		n, err := run(dir, filepath.Join(dir, keep), &out)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.ReplaceAll(out.String(), dir+"/", ""); got != want || n != strings.Count(want, "\n") {
			t.Errorf("%s: %d lines:\n%s\nwant:\n%s", keep, n, got, want)
		}
	}
	if _, err := run(dir, filepath.Join(dir, "missing.txt"), new(strings.Builder)); err == nil {
		t.Error("a missing keep file passed")
	}
}
