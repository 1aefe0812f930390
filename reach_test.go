// The reachability check: production code under internal/ is what a binary
// reaches. A stdlib-only pass type-checks every non-test package of the
// module and of the benchmark module (cmd/coherbench), follows references
// from every main, init and package-level var initializer, and fails on any
// function or method that no binary reaches. Test oracles belong in
// _test.go files beside the path they check.
//
// Run with: go test -run TestProductionCodeIsReachable .
package coherdb_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the functions kept in production code although no
// binary reaches them, keyed as funcKey prints them, with the reason. Only
// code that a test in another package needs, and that Go cannot export from
// a _test.go file, belongs here.
var reachAllowlist = map[string]string{
	"sim.(*System).Fingerprint":   "modelcheck's in-memory BFS oracle keys its visited set on it, and its tests compare states by it",
	"sim.(*System).ApproxBytes":   "modelcheck's in-memory BFS oracle charges its memory budget with it",
	"rel.(*Table).IndexedColumns": "the one view of a table's cached indexes, which sqlmini's and check's index-carrying tests read",
}

func TestProductionCodeIsReachable(t *testing.T) {
	unreached, err := unreachedFuncs(".", "cmd/coherbench")
	if err != nil {
		t.Fatal(err)
	}
	if len(reachAllowlist) > 10 {
		t.Errorf("allowlist has %d entries, want at most 10", len(reachAllowlist))
	}
	seen := map[string]bool{}
	var bad []string
	for _, u := range unreached {
		key := u.name
		if _, ok := reachAllowlist[key]; ok {
			seen[key] = true
			continue
		}
		bad = append(bad, fmt.Sprintf("%s: %s", u.pos, key))
	}
	if len(bad) > 0 {
		t.Errorf("%d functions in internal/ are reached by no binary; move test oracles into _test.go files and delete the rest:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
	for key := range reachAllowlist {
		if !seen[key] {
			t.Errorf("allowlist entry %s is reached (or gone); drop it", key)
		}
	}
}

// TestReachabilityFixture runs the pass over a two-module fixture: a dead
// function, a method reached only through fmt.Stringer, an unreached method
// of the same reached type, a function reached only from a package-level
// var initializer and one reached only from the second module's main.
// Exactly the dead function and the unreached method must be reported.
func TestReachabilityFixture(t *testing.T) {
	unreached, err := unreachedFuncs("testdata/reach", "testdata/reach/tool")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unreached {
		got = append(got, u.name)
	}
	if got, want := fmt.Sprint(got), "[lib.(Point).Unused lib.Dead]"; got != want {
		t.Fatalf("unreached = %s, want %s", got, want)
	}
}

// unreachedFunc is one function or method that no root reaches.
type unreachedFunc struct {
	pos  string // file:line relative to the first module's directory
	name string // as funcKey prints it
}

// reachPkg is one type-checked non-test package.
type reachPkg struct {
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// reachLoader type-checks module packages from source and takes the
// standard library from its export data (see stdImporter).
type reachLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*reachPkg // import path -> package
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return tp, nil
}

// loadModule parses the non-test files of every package in the module
// rooted at dir, stopping at nested modules and testdata directories.
func (l *reachLoader) loadModule(dir string) error {
	mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return fmt.Errorf("%s/go.mod names no module", dir)
	}
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		importPath := modPath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		p := &reachPkg{dir: path}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(l.fset, filepath.Join(path, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, af)
		}
		l.pkgs[importPath] = p
		return nil
	})
}

// unreachedFuncs type-checks the modules rooted at dirs (the first is the
// one reported on) and returns every function or method declared under the
// first module's internal/ directory that no main, init or package-level var
// initializer of any module reaches. A method is also reached when its
// receiver type is reached and some interface, standard-library ones
// included, declares a method with its name and signature.
func unreachedFuncs(dirs ...string) ([]unreachedFunc, error) {
	l := &reachLoader{
		fset: token.NewFileSet(),
		pkgs: map[string]*reachPkg{},
	}
	for _, dir := range dirs {
		if err := l.loadModule(dir); err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(l.pkgs))
	std := map[string]bool{}
	for path, p := range l.pkgs {
		paths = append(paths, path)
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if ip := strings.Trim(imp.Path.Value, `"`); l.pkgs[ip] == nil {
					std[ip] = true
				}
			}
		}
	}
	sort.Strings(paths)
	var err error
	if l.std, err = stdImporter(std); err != nil {
		return nil, err
	}
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}

	g := &reachGraph{
		body:    map[types.Object][]reachNode{},
		reached: map[types.Object]bool{},
		methods: map[*types.TypeName][]*types.Func{},
	}
	var roots []reachNode
	for _, path := range paths {
		p := l.pkgs[path]
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					n := reachNode{d, p.info}
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						roots = append(roots, n)
						continue
					}
					fn := p.info.Defs[d.Name].(*types.Func)
					g.body[fn] = append(g.body[fn], n)
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						if tn := namedOf(recv.Type()); tn != nil {
							g.methods[tn] = append(g.methods[tn], fn)
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							g.body[obj] = append(g.body[obj], reachNode{s, p.info})
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								roots = append(roots, reachNode{s, p.info})
							}
						}
					}
				}
			}
		}
	}
	g.collectInterfaces(l)
	for _, n := range roots {
		g.walk(n)
	}
	g.drain()

	base := dirs[0]
	internal := filepath.Join(base, "internal") + string(filepath.Separator)
	var out []unreachedFunc
	for _, path := range paths {
		p := l.pkgs[path]
		if !strings.HasPrefix(p.dir+string(filepath.Separator), internal) {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Recv == nil && d.Name.Name == "init" {
					continue
				}
				fn := p.info.Defs[d.Name].(*types.Func)
				if g.reached[fn] {
					continue
				}
				pos := l.fset.Position(d.Pos())
				file, _ := filepath.Rel(base, pos.Filename)
				out = append(out, unreachedFunc{pos: fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line), name: funcKey(fn)})
			}
		}
	}
	return out, nil
}

// reachNode is a declaration whose references are followed once its object
// is reached: a function, method or type declaration, or a root.
type reachNode struct {
	node ast.Node
	info *types.Info
}

type reachGraph struct {
	body    map[types.Object][]reachNode      // module declarations by object
	reached map[types.Object]bool             // objects reached so far
	queue   []reachNode                       // declarations left to walk
	methods map[*types.TypeName][]*types.Func // declared methods by receiver type
	ifaces  map[string][]*types.Signature     // interface methods by Id
	typed   []*types.TypeName                 // reached named types, in order
}

// reach marks obj reached and queues its declaration.
func (g *reachGraph) reach(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	if tn, ok := obj.(*types.TypeName); ok {
		if named, ok := tn.Type().(*types.Named); ok {
			obj = named.Origin().Obj()
		}
	}
	if obj == nil || g.reached[obj] {
		return
	}
	g.reached[obj] = true
	g.queue = append(g.queue, g.body[obj]...)
	if tn, ok := obj.(*types.TypeName); ok {
		g.typed = append(g.typed, tn)
	}
}

// walk follows every identifier a declaration uses, and the named types of
// every expression in it, since a value of a type can reach an interface
// without the type being named.
func (g *reachGraph) walk(n reachNode) {
	ast.Inspect(n.node, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if obj := n.info.Uses[id]; obj != nil {
				g.reach(obj)
			}
		}
		if e, ok := x.(ast.Expr); ok {
			if tv, ok := n.info.Types[e]; ok && tv.Type != nil {
				g.reachTypes(tv.Type, map[types.Type]bool{})
			}
		}
		return true
	})
}

// reachTypes reaches every named type that t is built from.
func (g *reachGraph) reachTypes(t types.Type, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		g.reach(t.Obj())
		if args := t.TypeArgs(); args != nil {
			for i := 0; i < args.Len(); i++ {
				g.reachTypes(args.At(i), seen)
			}
		}
	case *types.Pointer:
		g.reachTypes(t.Elem(), seen)
	case *types.Slice:
		g.reachTypes(t.Elem(), seen)
	case *types.Array:
		g.reachTypes(t.Elem(), seen)
	case *types.Chan:
		g.reachTypes(t.Elem(), seen)
	case *types.Map:
		g.reachTypes(t.Key(), seen)
		g.reachTypes(t.Elem(), seen)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				g.reachTypes(tup.At(i).Type(), seen)
			}
		}
	}
}

// drain walks queued declarations until no new object is reached, then
// reaches every method of a reached type that satisfies an interface
// method, and repeats until neither adds anything.
func (g *reachGraph) drain() {
	for done := 0; ; {
		for len(g.queue) > 0 {
			n := g.queue[len(g.queue)-1]
			g.queue = g.queue[:len(g.queue)-1]
			g.walk(n)
		}
		if done == len(g.typed) {
			return
		}
		for ; done < len(g.typed); done++ {
			for _, m := range g.methods[g.typed[done]] {
				if !g.reached[m] && g.satisfies(m) {
					g.reach(m)
				}
			}
		}
	}
}

// satisfies reports whether some interface declares a method with m's name
// and signature.
func (g *reachGraph) satisfies(m *types.Func) bool {
	for _, sig := range g.ifaces[m.Id()] {
		if types.Identical(sig, m.Type()) {
			return true
		}
	}
	return false
}

// collectInterfaces records the methods of every interface the modules
// declare or spell out, and of every interface declared at package level in
// the packages they import, transitively, and in the universe.
func (g *reachGraph) collectInterfaces(l *reachLoader) {
	g.ifaces = map[string][]*types.Signature{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			g.ifaces[m.Id()] = append(g.ifaces[m.Id()], m.Type().(*types.Signature))
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, p := range l.pkgs {
		visit(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
}

// stdImporter imports the given standard-library packages from their
// export data, which one go list run builds (or finds in the build
// cache) for all of them at once.
func stdImporter(paths map[string]bool) (types.Importer, error) {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range paths {
		args = append(args, path)
	}
	cmd := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.String())
	}
	files := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			files[path] = file
		}
	}
	return importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		file, ok := files[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

// namedOf returns the type name of a method receiver, T or *T.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// funcKey names a function by package and receiver: "sim.(*System).Fingerprint".
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		ptr := ""
		if _, ok := recv.Type().(*types.Pointer); ok {
			ptr = "*"
		}
		key += "(" + ptr + namedOf(recv.Type()).Name() + ")."
	}
	return key + fn.Name()
}
