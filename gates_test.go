// The gate-name check: every -run and -fuzz selection that scripts/bench.sh
// and the CI workflow pass to go test must name tests that exist. go test
// runs nothing, and reports success, when a selection matches no test, so
// a renamed or deleted test would silently empty its race gate or fuzz
// step. A stdlib-only pass collects the Test and Fuzz functions of every
// package and matches each alternative of each selection against the
// packages its command tests.
//
// Run with: go test -run TestGateNamesResolve .
package coherdb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// gateFiles are the files whose go test commands the check reads.
var gateFiles = []string{"scripts/bench.sh", ".github/workflows/ci.yml"}

func TestGateNamesResolve(t *testing.T) {
	tests, err := testFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, file := range gateFiles {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(src), "\\\n", " ")
		for _, line := range strings.Split(text, "\n") {
			i := strings.Index(line, "go test ")
			if i < 0 {
				continue
			}
			args := shellFields(line[i:])
			var pkgs, sels []string
			for k, a := range args {
				switch {
				case (a == "-run" || a == "-fuzz") && k+1 < len(args):
					sels = append(sels, args[k+1])
				case a == "." || strings.HasPrefix(a, "./"):
					pkgs = append(pkgs, a)
				}
			}
			for _, sel := range sels {
				if sel == "^$" {
					continue // selects no test on purpose, beside -bench or -fuzz
				}
				for _, alt := range strings.Split(sel, "|") {
					checked++
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s: selection %q: %v", file, alt, err)
						continue
					}
					if !anyMatch(tests, pkgs, re) {
						t.Errorf("%s: selection %q names no Test or Fuzz function in %v", file, alt, pkgs)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run or -fuzz selection found: the check is vacuous")
	}
}

// testFuncs maps each package directory under root (slash-separated,
// "" for root itself) to the names of its Test and Fuzz functions.
func testFuncs(root string) (map[string][]string, error) {
	out := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			dir = ""
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			if name := fd.Name.Name; strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz") {
				out[dir] = append(out[dir], name)
			}
		}
		return nil
	})
	return out, err
}

// anyMatch reports whether re matches a test name, as go test matches a
// selection against top-level test names, in a package pkgs names: "."
// for the root package, "./dir/" for one directory, "./dir/..." or
// "./..." for a tree; no package means the root one.
func anyMatch(tests map[string][]string, pkgs []string, re *regexp.Regexp) bool {
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	covers := func(dir string) bool {
		for _, p := range pkgs {
			p = strings.Trim(strings.TrimPrefix(p, "."), "/")
			tree, isTree := strings.CutSuffix(p, "...")
			tree = strings.TrimSuffix(tree, "/")
			if dir == tree || (isTree && (tree == "" || strings.HasPrefix(dir, tree+"/"))) {
				return true
			}
		}
		return false
	}
	for dir, names := range tests {
		if !covers(dir) {
			continue
		}
		for _, n := range names {
			if re.MatchString(n) {
				return true
			}
		}
	}
	return false
}

// shellFields splits a command line into words, honoring single and
// double quotes as the shell does for the simple commands checked here.
func shellFields(s string) []string {
	var out []string
	var cur strings.Builder
	var quote rune
	in := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, in = r, true
		case r == ' ' || r == '\t':
			if in {
				out = append(out, cur.String())
				cur.Reset()
				in = false
			}
		default:
			cur.WriteRune(r)
			in = true
		}
	}
	if in {
		out = append(out, cur.String())
	}
	return out
}
