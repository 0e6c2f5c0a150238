package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/checker"
)

// testSupport lists the exported identifiers under internal/ that no
// non-test file uses and that stay exported because tests of other
// packages call them. Keys are relative to the module's internal/
// directory: "pkg.Name" or "pkg.Type.Method". Each entry's doc comment
// carries a "Test support:" line. An entry that gains a non-test use, or
// that no _test.go file names, fails TestExportsHaveNonTestUse, so the
// list can only shrink.
var testSupport = map[string]bool{
	"deploy.GeneratePerturbedGrid": true,
	"geom.CircleIntersections":     true,
	"geom.Disk.ContainsDisk":       true,
	"geom.UnionAreaMC":             true,
	"geom.UnionsEqualMC":           true,
	"obs.SpanKind.SampledCount":    true,
	"obs.SpanKind.Total":           true,
	"routing.Route.Validate":       true,
	"skyline.ComputeNaive":         true,
	"spatial.Grid.Within":          true,
}

// testSupportPackages are internal packages that exist for tests; their
// exports are exempt as a whole.
var testSupportPackages = map[string]bool{
	"analysis/analysistest": true,
}

// TestExportsHaveNonTestUse enforces the export rule of docs/TESTING.md:
// every exported package-level identifier and method of a non-main
// package under internal/ has a use in a non-test file of the module or
// of the svcbench module outside test support, or is listed in
// testSupport. Test-only code lives in _test.go files; what only its own
// tests exercised is deleted.
// svcbench/ is a module of its own (go.mod replaces repro with this
// checkout) and is loaded offline as `make svcbench-test` builds it; a
// load failure fails the test.
func TestExportsHaveNonTestUse(t *testing.T) {
	t.Setenv("GOWORK", "off")
	t.Setenv("GOPROXY", "off")
	root := filepath.Join("..", "..")
	pkgs := loadIn(t, root, "./...")
	t.Setenv("GOFLAGS", "-mod=readonly")
	pkgs = append(pkgs, loadIn(t, filepath.Join(root, "svcbench"), "./...")...)

	scan := scanExports(pkgs, "repro", testSupport)
	t.Logf("%d exported package-level identifiers and methods under internal/, %d without a non-test use, %d kept by an interface",
		len(scan.decls), len(scan.unused), scan.byInterface)
	for _, k := range scan.unused {
		if !testSupport[k] && !testSupportPackages[scan.decls[k].pkg] {
			t.Errorf("%s: %s is exported but only tests use it: move it into a _test.go file, delete it, or list it as test support",
				scan.decls[k].pos, k)
		}
	}
	unused := map[string]bool{}
	for _, k := range scan.unused {
		unused[k] = true
	}
	named := testFileIdents(t, root)
	for k := range testSupport {
		d, ok := scan.decls[k]
		switch {
		case !ok:
			t.Errorf("testSupport lists %s, which is not an exported identifier under internal/", k)
			continue
		case !unused[k]:
			t.Errorf("%s: %s has a non-test use now: remove it from testSupport", d.pos, k)
		case !named[k[strings.LastIndex(k, ".")+1:]]:
			t.Errorf("%s: no _test.go file names %s: delete it and its testSupport entry", d.pos, k)
		}
		if !strings.Contains(d.doc, "Test support:") {
			t.Errorf("%s: %s is listed in testSupport but its doc comment has no \"Test support:\" line", d.pos, k)
		}
	}
}

// TestExportScanFixture runs the scan over the module in
// testdata/exports: a planted test-only export and a test-only method
// are reported; an export used by production code and a method that
// satisfies an interface (fmt.Stringer, a local interface) are not.
func TestExportScanFixture(t *testing.T) {
	t.Setenv("GOWORK", "off")
	t.Setenv("GOPROXY", "off")
	t.Setenv("GOFLAGS", "-mod=readonly")
	scan := scanExports(loadIn(t, filepath.Join("testdata", "exports"), "./..."), "fixture", nil)
	want := []string{"lib.Planted", "lib.T.Helper"}
	if strings.Join(scan.unused, " ") != strings.Join(want, " ") {
		t.Errorf("unused exports = %v, want %v", scan.unused, want)
	}
	if len(scan.decls) != 6 || scan.byInterface != 2 {
		t.Errorf("scan saw %d exports, %d kept by an interface; want 6 and 2", len(scan.decls), scan.byInterface)
	}
}

// loadIn loads patterns with the go command run in dir.
func loadIn(t *testing.T, dir string, patterns ...string) []*checker.Package {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	pkgs, err := checker.LoadTags(patterns, "")
	if cerr := os.Chdir(wd); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatalf("loading %v in %s: %v", patterns, dir, err)
	}
	for _, p := range pkgs {
		if err := p.Err(); err != nil {
			t.Fatalf("loading %s: %v", p.Path, err)
		}
	}
	return pkgs
}

// exportDecl is one exported declaration under internal/.
type exportDecl struct {
	pkg string // package path relative to <module>/internal/
	pos token.Position
	doc string
}

type exportScan struct {
	decls       map[string]exportDecl
	unused      []string // keys of decls with no non-test use, sorted
	byInterface int      // methods used only by satisfying an interface
}

// scanExports finds the exported package-level identifiers and methods
// of the non-main packages under <module>/internal/ and those of them
// that nothing in pkgs (non-test files only) uses.
//
// Objects are keyed by package path, receiver type and name, because a
// package type-checked from source sees its imports through export data,
// whose objects are not the source-checked ones. A use inside the
// identifier's own declaration (recursion) does not count, nor does one
// inside a test-support declaration (support, keyed relative to
// internal/): test support keeps nothing else exported. A method
// without a use counts as used when its receiver type, or a pointer to
// it, satisfies an interface that has the method: an interface declared
// at package level in any package the loaded ones reach, an interface
// type written in a loaded file, or error. Interfaces are matched by
// method name and signature string for the same reason.
func scanExports(pkgs []*checker.Package, module string, support map[string]bool) exportScan {
	prefix := module + "/internal/"
	scan := exportScan{decls: map[string]exportDecl{}}
	used := map[string]bool{}
	named := map[string]*types.Named{} // method key → receiver type
	for _, p := range pkgs {
		own := strings.HasPrefix(p.Path, prefix) && p.Types.Name() != "main"
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				var self []string
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := p.Info.Defs[d.Name]
					self = []string{objKey(obj)}
					if own && d.Name.IsExported() {
						scan.add(p, obj, d.Doc)
						if fn := obj.(*types.Func); fn.Type().(*types.Signature).Recv() != nil {
							named[self[0]] = recvNamed(fn)
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						doc := d.Doc
						var ids []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							ids = []*ast.Ident{s.Name}
							if s.Doc != nil {
								doc = s.Doc
							}
						case *ast.ValueSpec:
							ids = s.Names
							if s.Doc != nil {
								doc = s.Doc
							}
						}
						for _, id := range ids {
							if obj := p.Info.Defs[id]; obj != nil && id.IsExported() {
								self = append(self, objKey(obj))
								if own {
									scan.add(p, obj, doc)
								}
							}
						}
					}
				}
				if slices.ContainsFunc(self, func(k string) bool { return support[strings.TrimPrefix(k, prefix)] }) {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if k := objKey(p.Info.Uses[id]); k != "" && !slices.Contains(self, k) {
							used[k] = true
						}
					}
					return true
				})
			}
		}
	}

	ifaces := reachableInterfaces(pkgs)
	for k := range scan.decls {
		if used[k] {
			continue
		}
		if t := named[k]; t != nil && satisfiesWith(t, k[strings.LastIndex(k, ".")+1:], ifaces) {
			scan.byInterface++
			continue
		}
		scan.unused = append(scan.unused, k)
	}
	sort.Strings(scan.unused)
	// Re-key relative to internal/ for reporting.
	rel := map[string]exportDecl{}
	for k, d := range scan.decls {
		rel[strings.TrimPrefix(k, prefix)] = d
	}
	scan.decls = rel
	for i, k := range scan.unused {
		scan.unused[i] = strings.TrimPrefix(k, prefix)
	}
	return scan
}

func (s *exportScan) add(p *checker.Package, obj types.Object, doc *ast.CommentGroup) {
	path := p.Path[strings.Index(p.Path, "/internal/")+len("/internal/"):]
	s.decls[objKey(obj)] = exportDecl{pkg: path, pos: p.Fset.Position(obj.Pos()), doc: doc.Text()}
}

// objKey names a package-level object or a method of a named type as
// "pkgpath.Name" or "pkgpath.Type.Method"; anything else yields "".
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		if t := recvNamed(fn); t != nil {
			return fn.Pkg().Path() + "." + t.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed returns the named type a method is declared on, or nil for
// a method of an unnamed interface.
func recvNamed(fn *types.Func) *types.Named {
	t := fn.Origin().Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// methodSigs maps each method of an interface to its signature string.
type methodSigs map[string]string

// sigString renders a method signature by its parameter and result
// types alone, packages qualified by path, so that two views of one
// package render it alike whatever the parameters are called.
func sigString(t types.Type) string {
	qual := func(p *types.Package) string { return p.Path() }
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// reachableInterfaces collects the non-empty method-set interfaces the
// loaded packages can name: package-level interface types of every
// package they reach through imports, interface types written in their
// files, and error.
func reachableInterfaces(pkgs []*checker.Package) []methodSigs {
	var out []methodSigs
	seen := map[string]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || !it.IsMethodSet() {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		ms := methodSigs{}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			ms[m.Name()] = sigString(m.Type())
		}
		key := types.TypeString(it, func(p *types.Package) string { return p.Path() })
		if !seen[key] {
			seen[key] = true
			out = append(out, ms)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	return out
}

// satisfiesWith reports whether t or *t implements some interface in
// ifaces that has a method named method.
func satisfiesWith(t *types.Named, method string, ifaces []methodSigs) bool {
	have := methodSigs{}
	mset := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		have[m.Name()] = sigString(m.Type())
	}
	for _, ms := range ifaces {
		if _, ok := ms[method]; !ok {
			continue
		}
		ok := true
		for name, sig := range ms {
			if have[name] != sig {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// testFileIdents returns every identifier name written in a _test.go
// file under root, outside vendor/, testdata/ and hidden directories.
func testFileIdents(t *testing.T, root string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".")) {
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
