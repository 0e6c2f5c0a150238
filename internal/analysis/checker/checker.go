// Package checker is the mldcslint driver: it loads and type-checks each
// matched package exactly once (`go list -export` + the gc importer for
// dependencies), fans the whole analyzer suite out over every package —
// in dependency order, packages analyzed concurrently once their
// dependencies are done — and collects diagnostics plus per-analyzer
// wall time.
//
// It deliberately avoids golang.org/x/tools/go/packages (the repository
// vendors only the small go/analysis core): imports are resolved through
// compiler export data produced by `go list -export`, which the gc
// importer in the standard library reads directly. The repository has no
// external runtime dependencies, so every import is either in-module or
// in the standard library, and both come back from one `go list -deps`
// invocation.
//
// Cross-package analyzer facts are supported (see FactStore): packages
// are analyzed dependees-first, so when the suite reaches a package, the
// facts its imports exported — a skyline function returns scratch-backed
// memory, an engine type is //mldcs:immutable, a struct field is accessed
// atomically — are already in the store, keyed by a stable object path
// that survives the source-view/export-data-view split.
package checker

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/allowdirective"
)

// A Package is a parsed and type-checked package ready for analysis.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
	Module    *analysis.Module
	deps      map[string]bool // transitive import paths, for analysis ordering
	typeErrs  []types.Error
	parseErrs []error
}

// Err returns the first load error (parse or type) of the package, or nil.
func (p *Package) Err() error {
	if len(p.parseErrs) > 0 {
		return p.parseErrs[0]
	}
	if len(p.typeErrs) > 0 {
		return p.typeErrs[0]
	}
	return nil
}

// A Diagnostic is an analyzer finding resolved to a file position.
// Allowed marks findings suppressed by an //mldcslint:allow directive on
// (or immediately above) the flagged line: they do not fail the lint, but
// -json output still carries them so CI artifacts record the allow state.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
	Allowed  bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// listedPkg mirrors the `go list -json` fields the loader requests.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Deps       []string
	DepOnly    bool
	Standard   bool
	Module     *struct{ Path, GoVersion string }
	Error      *struct{ Err string }
}

func goList(extra []string, patterns ...string) ([]*listedPkg, error) {
	args := append([]string{"list", "-e", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Deps,DepOnly,Standard,Module,Error"}, extra...)
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// NewInfo returns a types.Info with all the maps analyzers expect.
func NewInfo() *types.Info {
	return &types.Info{
		Types:        map[ast.Expr]types.TypeAndValue{},
		Instances:    map[*ast.Ident]types.Instance{},
		Defs:         map[*ast.Ident]types.Object{},
		Uses:         map[*ast.Ident]types.Object{},
		Implicits:    map[ast.Node]types.Object{},
		Selections:   map[*ast.SelectorExpr]*types.Selection{},
		Scopes:       map[ast.Node]*types.Scope{},
		FileVersions: map[*ast.File]string{},
	}
}

// LoadTags resolves patterns with the go toolchain and returns the
// matched non-standard-library packages, parsed with comments and
// type-checked from source. Imports (in-module and standard library
// alike) are satisfied from the export data `go list -export` produced.
// tags are extra build tags (comma-separated, as for `go build -tags`;
// "" for none): the mutation-canary test lints the `mldcsmutate` build
// of the engine with them.
func LoadTags(patterns []string, tags string) ([]*Package, error) {
	extra := []string{"-deps"}
	if tags != "" {
		extra = append(extra, "-tags", tags)
	}
	listed, err := goList(extra, patterns...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
			exportCache.put(p.ImportPath, p.Export)
		}
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
	}
	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var out []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		pkg := &Package{Path: lp.ImportPath, Fset: fset, Info: NewInfo(), deps: map[string]bool{}}
		for _, d := range lp.Deps {
			pkg.deps[d] = true
		}
		if lp.Module != nil {
			pkg.Module = &analysis.Module{Path: lp.Module.Path, GoVersion: lp.Module.GoVersion}
		}
		for _, f := range lp.GoFiles {
			file, err := parser.ParseFile(fset, filepath.Join(lp.Dir, f), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				pkg.parseErrs = append(pkg.parseErrs, err)
				continue
			}
			pkg.Files = append(pkg.Files, file)
		}
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				var te types.Error
				if errors.As(err, &te) {
					pkg.typeErrs = append(pkg.typeErrs, te)
				}
			},
		}
		pkg.Types, _ = conf.Check(lp.ImportPath, fset, pkg.Files, pkg.Info)
		out = append(out, pkg)
	}
	return out, nil
}

// RunStats reports how a checker run spent its time: cumulative wall
// time per analyzer across all packages (concurrent package analyses all
// contribute, so the sum can exceed the run's wall clock).
type RunStats struct {
	mu       sync.Mutex
	Analyzer map[string]time.Duration
	Packages int
}

func (st *RunStats) add(name string, d time.Duration) {
	st.mu.Lock()
	st.Analyzer[name] += d
	st.mu.Unlock()
}

// RunSuite fans the analyzer suite out over the loaded packages —
// every package loaded and type-checked exactly once, all analyzers
// sharing that single load — and returns all diagnostics sorted by
// position, plus per-analyzer timing. Packages are processed in
// dependency order so cross-package facts flow from dependees to
// dependents; packages whose dependencies are settled run concurrently.
// Packages that failed to load abort the run: a lint verdict on a
// partially-typed tree is not trustworthy.
func RunSuite(as []*analysis.Analyzer, pkgs []*Package, facts *FactStore) ([]Diagnostic, *RunStats, error) {
	stats := &RunStats{Analyzer: map[string]time.Duration{}, Packages: len(pkgs)}
	for _, pkg := range pkgs {
		if err := pkg.Err(); err != nil {
			return nil, stats, fmt.Errorf("%s: %v", pkg.Path, err)
		}
	}
	var (
		mu       sync.Mutex
		diags    []Diagnostic
		firstErr error
	)
	for _, level := range dependencyLevels(pkgs) {
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for _, pkg := range level {
			wg.Add(1)
			sem <- struct{}{}
			go func(pkg *Package) {
				defer func() { <-sem; wg.Done() }()
				ds, err := analyzePackage(as, pkg, facts, stats)
				mu.Lock()
				defer mu.Unlock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				diags = append(diags, ds...)
			}(pkg)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, stats, firstErr
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, stats, nil
}

// dependencyLevels partitions pkgs into waves: a package lands in the
// first wave where none of the loaded packages it (transitively) imports
// is in the same or a later wave. Facts then flow strictly forward.
func dependencyLevels(pkgs []*Package) [][]*Package {
	loaded := map[string]*Package{}
	for _, p := range pkgs {
		loaded[p.Path] = p
	}
	level := map[string]int{}
	var depth func(p *Package) int
	depth = func(p *Package) int {
		if d, ok := level[p.Path]; ok {
			return d
		}
		level[p.Path] = 0 // cycle guard; go packages cannot cycle anyway
		d := 0
		for dep := range p.deps {
			if dp, ok := loaded[dep]; ok && dp != p {
				if dd := depth(dp) + 1; dd > d {
					d = dd
				}
			}
		}
		level[p.Path] = d
		return d
	}
	maxDepth := 0
	for _, p := range pkgs {
		if d := depth(p); d > maxDepth {
			maxDepth = d
		}
	}
	out := make([][]*Package, maxDepth+1)
	for _, p := range pkgs {
		out[level[p.Path]] = append(out[level[p.Path]], p)
	}
	return out
}

// analyzePackage runs the analyzers on pkg in Requires order, threading
// results through ResultOf.
func analyzePackage(as []*analysis.Analyzer, pkg *Package, facts *FactStore, stats *RunStats) ([]Diagnostic, error) {
	var diags []Diagnostic
	results := map[*analysis.Analyzer]interface{}{}
	done := map[*analysis.Analyzer]bool{}
	var exec func(a *analysis.Analyzer) error
	exec = func(a *analysis.Analyzer) error {
		if done[a] {
			return nil
		}
		done[a] = true
		for _, req := range a.Requires {
			if err := exec(req); err != nil {
				return err
			}
		}
		start := time.Now()
		ds, res, err := AnalyzeOne(a, pkg, results, facts)
		if stats != nil {
			stats.add(a.Name, time.Since(start))
		}
		if err != nil {
			return fmt.Errorf("%s: analyzer %s: %v", pkg.Path, a.Name, err)
		}
		results[a] = res
		diags = append(diags, ds...)
		return nil
	}
	for _, a := range as {
		if err := exec(a); err != nil {
			return nil, err
		}
	}
	return diags, nil
}

// AnalyzeOne applies a single analyzer to a loaded package. resultOf
// carries the results of previously-run required analyzers (may be nil
// when the analyzer has no requirements); facts carries cross-package
// analyzer facts (nil disables them). Diagnostics suppressed by an
// //mldcslint:allow directive are returned with Allowed set rather than
// dropped, so callers can surface the allow state.
func AnalyzeOne(a *analysis.Analyzer, pkg *Package, resultOf map[*analysis.Analyzer]interface{}, facts *FactStore) ([]Diagnostic, interface{}, error) {
	var diags []Diagnostic
	if facts == nil {
		facts = NewFactStore()
	}
	var factErr error
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.Info,
		TypesSizes: types.SizesFor("gc", runtime.GOARCH),
		TypeErrors: pkg.typeErrs,
		Module:     pkg.Module,
		ResultOf:   map[*analysis.Analyzer]interface{}{},
		ReadFile:   os.ReadFile,
		Report: func(d analysis.Diagnostic) {
			allowed := false
			if f := allowdirective.FileFor(pkg.Fset, pkg.Files, d.Pos); f != nil {
				allowed = allowdirective.Allowed(pkg.Fset, f, d.Pos, a.Name)
			}
			diags = append(diags, Diagnostic{
				Analyzer: a.Name,
				Position: pkg.Fset.Position(d.Pos),
				Message:  d.Message,
				Allowed:  allowed,
			})
		},
		ImportObjectFact: facts.importObjectFact,
		ImportPackageFact: func(p *types.Package, fact analysis.Fact) bool {
			return facts.importPackageFact(p, fact)
		},
		ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
			if err := facts.exportObjectFact(obj, fact); err != nil && factErr == nil {
				factErr = err
			}
		},
		ExportPackageFact: func(fact analysis.Fact) {
			if err := facts.exportPackageFact(pkg.Types, fact); err != nil && factErr == nil {
				factErr = err
			}
		},
		AllObjectFacts:  func() []analysis.ObjectFact { return nil },
		AllPackageFacts: func() []analysis.PackageFact { return nil },
	}
	for _, req := range a.Requires {
		pass.ResultOf[req] = resultOf[req]
	}
	res, err := a.Run(pass)
	if err == nil {
		err = factErr
	}
	return diags, res, err
}

// exportMemo memoizes `go list -export` lookups so the analysistest
// harness does not shell out once per fixture import.
type exportMemo struct {
	sync.Mutex
	m map[string]string
}

var exportCache = exportMemo{m: map[string]string{}}

func (c *exportMemo) put(path, file string) {
	c.Lock()
	defer c.Unlock()
	c.m[path] = file
}

func (c *exportMemo) get(path string) (string, bool) {
	c.Lock()
	defer c.Unlock()
	f, ok := c.m[path]
	return f, ok
}

// ExportFile returns the compiler export data file for a standard-library
// (or otherwise toolchain-resolvable, non-module) import path, building
// it if necessary. Used by the analysistest harness to satisfy fixture
// imports such as "math" or "fmt".
func ExportFile(path string) (string, error) {
	if f, ok := exportCache.get(path); ok {
		return f, nil
	}
	pkgs, err := goList(nil, path)
	if err != nil {
		return "", err
	}
	if len(pkgs) != 1 || pkgs[0].Export == "" {
		return "", fmt.Errorf("no export data for %q", path)
	}
	if !pkgs[0].Standard && !strings.HasPrefix(path, "repro/") {
		return "", fmt.Errorf("%q is neither standard library nor in-module", path)
	}
	exportCache.put(path, pkgs[0].Export)
	return pkgs[0].Export, nil
}
