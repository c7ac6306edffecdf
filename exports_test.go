package nbody

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
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyExports are the exported names, functions and methods under
// internal/ that only tests call, each with why it stays in the
// package's non-test code and a test that uses it. Only oracles and
// test support belong here. DESIGN.md's "Test-only exports" table lists
// the same rows.
var testOnlyExports = map[string]struct{ reason, test string }{
	"phys.Law.AccumulateGeneric": {"the per-pair reference force every kernel is held to", "TestKernelMatchesGenericAccumulate"},
	"phys.NewCellList":           {"the cell-list reference force of a cutoff law", "TestCellListMatchesBruteForceCutoff"},
	"phys.CellList.Forces":       {"the cell-list reference force of a cutoff law", "TestCellListForcesMatchesGeneric"},
	"phys.CountPairsWithin":      {"the brute-force count of nk, the pairs within r_c of Equation 3", "TestCountPairsWithin"},
	"phys.MaxForceError":         {"the relative force error the reference comparisons read", "TestMaxForceErrorValue"},
	"phys.NetForce":              {"the momentum check of the force kernels", "TestDiagnosticsConservation"},
	"phys.LJLaw":                 {"the Lennard-Jones law fixture of the kernel tests", "TestLJShiftedCutoffContinuity"},
	"obs/record.ReadRecording":   {"reads back the recording format the writer pins", "TestStreamRoundTrip"},
	"leakcheck.Check":            {"the goroutine leak check of the runtime tests", "TestWorldRunsAgain"},
	"phys.wrap1":                 {"the spec of the minimum-image wrap compactCut inlines by hand", "TestWrap1MatchesMinImage1"},
	"phys.quotientAVX512":        {"the pipelined sweep's quotient stage alone, held to Go's division", "TestQuotientDirected"},
}

// srcConfigs are the build configurations the source checks select
// files under: the default build and the two tags that swap files, all
// for amd64, the one architecture with assembly files, so that every
// host checks the same files (the test-only quotientAVX512 among them).
var srcConfigs = [][]string{nil, {"purego"}, {"obsdebug"}}

// srcPkg is one type-checked package of the repository under one or
// more of srcConfigs (a package whose files and imports agree across
// configurations is checked once).
type srcPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// srcTree is every non-test Go file of the repository, cmd/, examples/
// and the benchmark module included, parsed once and type-checked
// under each of srcConfigs.
type srcTree struct {
	fset   *token.FileSet
	dirs   map[string]string // import path -> directory
	parsed map[string]*ast.File
	byKey  map[string]*srcPkg
	pkgs   []*srcPkg // every distinct check
}

var (
	srcOnce sync.Once
	srcRepo *srcTree
	srcErr  error
)

// loadSrc parses and type-checks the repository once per test binary.
func loadSrc(t *testing.T) *srcTree {
	t.Helper()
	srcOnce.Do(func() { srcRepo, srcErr = newSrcTree() })
	if srcErr != nil {
		t.Fatal(srcErr)
	}
	return srcRepo
}

func newSrcTree() (*srcTree, error) {
	tr := &srcTree{
		fset:   token.NewFileSet(),
		dirs:   map[string]string{},
		parsed: map[string]*ast.File{},
		byKey:  map[string]*srcPkg{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
			return filepath.SkipDir
		}
		if m, _ := filepath.Glob(filepath.Join(p, "*.go")); len(m) > 0 {
			tr.dirs[importPathOf(p)] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Standard-library packages come from the compiler's export data,
	// shared by every configuration.
	std := importer.ForCompiler(tr.fset, "gc", nil)
	paths := make([]string, 0, len(tr.dirs))
	for p := range tr.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, tags := range srcConfigs {
		ctxt := build.Default
		ctxt.GOARCH = "amd64"
		ctxt.BuildTags = tags
		l := &srcLoader{tr: tr, ctxt: &ctxt, std: std, memo: map[string]*srcPkg{}}
		for _, p := range paths {
			if _, err := l.load(p); err != nil {
				return nil, fmt.Errorf("tags %v: %w", tags, err)
			}
		}
	}
	return tr, nil
}

// importPathOf maps a directory of the repository to its import path;
// the benchmark module's path, repro/benchmark, follows the same rule.
func importPathOf(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

// srcLoader type-checks the repository under one build configuration.
type srcLoader struct {
	tr   *srcTree
	ctxt *build.Context
	std  types.Importer
	memo map[string]*srcPkg
}

func (l *srcLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.tr.dirs[path]; !ok {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *srcLoader) load(path string) (*srcPkg, error) {
	if p, ok := l.memo[path]; ok {
		return p, nil
	}
	dir := l.tr.dirs[path]
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	key := path
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := l.ctxt.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f := l.tr.parsed[name]
		if f == nil {
			if f, err = parser.ParseFile(l.tr.fset, name, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			l.tr.parsed[name] = f
		}
		files = append(files, f)
		key += " " + name
	}
	// A package is checked again only when its files or the check of
	// one of its repository imports differ from an earlier configuration.
	for _, f := range files {
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if _, ok := l.tr.dirs[ip]; ok {
				dep, err := l.load(ip)
				if err != nil {
					return nil, err
				}
				key += fmt.Sprintf(" %p", dep)
			}
		}
	}
	if p := l.tr.byKey[key]; p != nil {
		l.memo[path] = p
		return p, nil
	}
	// Uses alone records every reference: the checker records the
	// selected name of a selector (x.f) there too.
	p := &srcPkg{path: path, files: files, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.tr.fset, files, p.info); err != nil {
		return nil, err
	}
	l.tr.byKey[key], l.memo[path] = p, p
	l.tr.pkgs = append(l.tr.pkgs, p)
	return p, nil
}

// exportName is how the checks name a package-level object or method:
// its package path with repro/internal/ (or repro/) cut off, then the
// receiver's type name for a method, then the name. Locals and fields
// have none.
func exportName(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	prefix := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), "repro/internal/"), "repro/")
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := types.Unalias(recv.Type())
			if ptr, ok := t.(*types.Pointer); ok {
				t = types.Unalias(ptr.Elem())
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return prefix + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != pkg.Scope() {
		return ""
	}
	return prefix + "." + obj.Name()
}

// exportSubject is one exported name, function or method declared under
// internal/.
type exportSubject struct {
	pos   token.Position
	recv  *types.Named // the receiver's type, for a method
	name  string       // the method's or object's own name
	inAPI bool         // reachable from the root package's exported names
}

// exportSurface returns every exported package-level name and every
// package-level function and method, exported or not, declared under
// internal/, keyed by exportName, and the names some non-test file of
// any configuration refers to.
func (tr *srcTree) exportSurface() (subjects map[string]*exportSubject, used map[string]bool) {
	subjects, used = map[string]*exportSubject{}, map[string]bool{}
	for _, p := range tr.pkgs {
		for _, obj := range p.info.Uses {
			used[exportName(obj)] = true
		}
		if !strings.HasPrefix(p.path, "repro/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if _, fn := obj.(*types.Func); obj.Exported() || fn {
				if _, ok := subjects[exportName(obj)]; !ok {
					subjects[exportName(obj)] = &exportSubject{pos: tr.fset.Position(obj.Pos()), name: n}
				}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if _, ok := subjects[exportName(m)]; !ok {
					subjects[exportName(m)] = &exportSubject{pos: tr.fset.Position(m.Pos()), recv: named, name: m.Name()}
				}
			}
		}
	}
	return subjects, used
}

// markAPI marks the methods of every internal type the root package's
// exported names reach, through aliases, exported signatures and
// exported or embedded fields: callers of the library call them.
func (tr *srcTree) markAPI(subjects map[string]*exportSubject) {
	seen := map[types.Type]bool{}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		t = types.Unalias(t)
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if pkg := t.Obj().Pkg(); pkg == nil || !strings.HasPrefix(pkg.Path(), "repro") {
				return
			}
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					if s := subjects[exportName(m)]; s != nil {
						s.inAPI = true
					}
					visit(m.Type())
				}
			}
			visit(t.Underlying())
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			visit(t.Params())
			visit(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				visit(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					visit(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					visit(m.Type())
				}
			}
		}
	}
	for _, p := range tr.pkgs {
		if p.path != "repro" {
			continue
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			if obj := scope.Lookup(n); obj.Exported() {
				visit(obj.Type())
			}
		}
	}
}

// interfaces returns every interface type declared or named in the
// checked packages or declared in a package they import: a method that
// satisfies one of them may be called through it (fmt calls String).
func (tr *srcTree) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(obj types.Object) {
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
				seen[it] = true
				out = append(out, it)
			}
		}
	}
	for _, p := range tr.pkgs {
		for _, obj := range p.info.Uses {
			add(obj)
		}
		for _, pkg := range append(p.types.Imports(), p.types) {
			for _, n := range pkg.Scope().Names() {
				add(pkg.Scope().Lookup(n))
			}
		}
	}
	return out
}

// implementsSome reports whether T or *T implements an interface that
// has the method name.
func implementsSome(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != name {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

// TestNoTestOnlyExports requires every exported name, function and
// method under internal/ to have a caller outside the tests, be
// reachable from the library's public API, or be on the testOnlyExports
// list of oracles; that list may not go stale, and DESIGN.md must list
// the same rows. An unexported function only tests call is dead code
// the package carries as much as an exported one.
func TestNoTestOnlyExports(t *testing.T) {
	tr := loadSrc(t)
	subjects, used := tr.exportSurface()
	tr.markAPI(subjects)
	ifaces := tr.interfaces()
	referenced := func(name string, s *exportSubject) bool {
		return used[name] || s.inAPI || s.recv != nil && implementsSome(s.recv, s.name, ifaces)
	}

	var bad []string
	for name, s := range subjects {
		if _, ok := testOnlyExports[name]; !ok && !referenced(name, s) {
			bad = append(bad, fmt.Sprintf("%s:%d: %s", s.pos.Filename, s.pos.Line, name))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("%d names under internal/ have no non-test reference; delete them, move them into the test that uses them, or allowlist an oracle in testOnlyExports:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}

	tests := testFuncs(t)
	for name, e := range testOnlyExports {
		s := subjects[name]
		switch {
		case s == nil:
			t.Errorf("testOnlyExports: %s no longer exists", name)
		case referenced(name, s):
			t.Errorf("testOnlyExports: %s has a non-test reference now; drop it from the list", name)
		}
		if !tests[e.test] {
			t.Errorf("testOnlyExports: %s names %s, which is no test of the repository", name, e.test)
		}
	}

	table := designTable(t)
	for name, e := range testOnlyExports {
		if row, ok := table[name]; !ok {
			t.Errorf("DESIGN.md's test-only exports table lacks %s", name)
		} else if row != e {
			t.Errorf("DESIGN.md lists %s as %q (%s); testOnlyExports has %q (%s)", name, row.reason, row.test, e.reason, e.test)
		}
	}
	for name := range table {
		if _, ok := testOnlyExports[name]; !ok {
			t.Errorf("DESIGN.md's test-only exports table lists %s, which testOnlyExports does not", name)
		}
	}
}

// testFuncs returns the name of every Test function of the repository.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	re := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		b, err := os.ReadFile(p)
		for _, m := range re.FindAllSubmatch(b, -1) {
			out[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// designTable reads DESIGN.md's table of test-only exports: the rows
// after its heading, up to the first line that is not a table row.
func designTable(t *testing.T) map[string]struct{ reason, test string } {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(b), "### Test-only exports\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"### Test-only exports\" section")
	}
	out := map[string]struct{ reason, test string }{}
	inTable := false
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 3 || !strings.HasPrefix(strings.TrimSpace(cells[0]), "`") {
			continue // the header and its rule
		}
		out[strings.Trim(strings.TrimSpace(cells[0]), "`")] = struct{ reason, test string }{
			strings.TrimSpace(cells[1]), strings.Trim(strings.TrimSpace(cells[2]), "`"),
		}
	}
	return out
}

// sourceRules are contracts of the non-test code that no type or test
// of the package itself can hold; each returns its violations.
var sourceRules = []struct {
	name string
	why  string
	find func(tr *srcTree) []string
}{
	{
		"no encoding/json under internal/comm",
		"the socket runtime's frames are fixed binary layouts with one codec",
		func(tr *srcTree) (out []string) {
			for name, f := range tr.parsed {
				if !strings.HasPrefix(filepath.ToSlash(name), "internal/comm/") {
					continue
				}
				for _, imp := range f.Imports {
					if imp.Path.Value == `"encoding/json"` {
						out = append(out, tr.at(imp.Pos()))
					}
				}
			}
			return out
		},
	},
	{
		"no sync.Pool in internal/comm or internal/core",
		"the exchange path reuses its own buffers, and a pool drops a quarter of them under -race",
		func(tr *srcTree) (out []string) {
			for _, p := range tr.pkgs {
				if !strings.HasPrefix(p.path, "repro/internal/comm") && p.path != "repro/internal/core" {
					continue
				}
				for id, obj := range p.info.Uses {
					if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool" {
						out = append(out, tr.at(id.Pos()))
					}
				}
			}
			return out
		},
	},
	{
		"recover() only in comm's runRank",
		"a rank's panic becomes the run's error in one place, and the errAborted panics are the only unwinding",
		func(tr *srcTree) []string {
			sites := map[string]string{} // position -> enclosing function
			for _, p := range tr.pkgs {
				for _, f := range p.files {
					for _, d := range f.Decls {
						fn, ok := d.(*ast.FuncDecl)
						if !ok {
							continue
						}
						ast.Inspect(fn, func(n ast.Node) bool {
							if call, ok := n.(*ast.CallExpr); ok {
								if id, ok := call.Fun.(*ast.Ident); ok {
									if b, ok := p.info.Uses[id].(*types.Builtin); ok && b.Name() == "recover" {
										sites[tr.at(call.Pos())] = p.path + "." + fn.Name.Name
									}
								}
							}
							return true
						})
					}
				}
			}
			var out []string
			for at, fn := range sites {
				if len(sites) > 1 || fn != "repro/internal/comm.runRank" {
					out = append(out, at+" in "+fn)
				}
			}
			if len(sites) == 0 {
				out = append(out, "no recover() in comm's runRank")
			}
			return out
		},
	},
}

func (tr *srcTree) at(pos token.Pos) string {
	p := tr.fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// TestSourceRules holds sourceRules over every non-test file of every
// build configuration.
func TestSourceRules(t *testing.T) {
	tr := loadSrc(t)
	for _, r := range sourceRules {
		found := map[string]bool{}
		for _, v := range r.find(tr) {
			found[v] = true
		}
		if len(found) == 0 {
			continue
		}
		var list []string
		for v := range found {
			list = append(list, v)
		}
		sort.Strings(list)
		t.Errorf("rule %q (%s) is broken at:\n\t%s", r.name, r.why, strings.Join(list, "\n\t"))
	}
}
