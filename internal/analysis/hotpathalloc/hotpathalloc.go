// Package hotpathalloc keeps the zero-alloc hot paths honest. Functions
// annotated `//mldcs:hotpath` (skyline ComputeInto, the kinetic *Into
// family, engine per-node recompute) are pinned at zero allocations per
// call by testing.AllocsPerRun — but only on the input shapes the tests
// exercise. This analyzer rejects allocation-inducing constructs in the
// source of every hotpath function, whatever the inputs:
//
//   - map and slice composite literals, make, new, &T{...}
//   - append to slices that are not scratch/arena-backed (a skyline-owned
//     type, a Scratch field, or an explicit x[:0] reuse of a caller
//     buffer may grow amortized-zero; anything else escapes the arena
//     discipline)
//   - interface boxing at call sites (a concrete value passed to an
//     interface parameter allocates unless the compiler can prove
//     otherwise — on a hot path, don't make it try)
//   - closures that capture variables (captured-by-reference variables
//     are heap-moved)
//   - non-constant string concatenation
//   - any call into fmt
//   - calls to non-hotpath functions in this module whose bodies contain
//     any of the above (an AllocFact exported cross-package), so a
//     hotpath cannot launder an allocation through a helper
//
// Findings are suppressed with `//mldcslint:allow hotpathalloc <reason>`
// where an allocation is deliberate (cold error paths, once-per-call
// span finalization). See docs/PERFORMANCE.md for the hot-path map.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/allowdirective"
)

const Name = "hotpathalloc"

// Directive is the comment marking a function as an allocation-free hot
// path.
const Directive = "mldcs:hotpath"

// SkylinePath is the package whose types are arena/scratch-backed.
const SkylinePath = "repro/internal/skyline"

// HotFact marks a function annotated //mldcs:hotpath.
type HotFact struct{}

func (*HotFact) AFact() {}

func (*HotFact) String() string { return "hotpath" }

// AllocFact marks a non-hotpath function whose body contains an
// allocation-inducing construct; calling it from a hotpath is a finding.
type AllocFact struct{ Why string }

func (*AllocFact) AFact() {}

func (f *AllocFact) String() string { return "allocates (" + f.Why + ")" }

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "forbid allocation-inducing constructs (literals, make/new, boxing,\n" +
		"capturing closures, string concat, fmt, allocating helpers) in functions\n" +
		"annotated //mldcs:hotpath",
	Run:       run,
	FactTypes: []analysis.Fact{(*HotFact)(nil), (*AllocFact)(nil)},
}

type allocSite struct {
	node ast.Node
	why  string
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{pass: pass, hot: map[*types.Func]bool{}}

	// Pass 1: find //mldcs:hotpath declarations and export HotFact.
	var decls []*ast.FuncDecl
	for _, file := range pass.Files {
		if allowdirective.InTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			decls = append(decls, fd)
			if !hasDirective(fd.Doc) {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.hot[fn] = true
				pass.ExportObjectFact(fn, &HotFact{})
			}
		}
	}

	// Pass 2: summarize every non-hotpath function's allocation behavior
	// so hotpath callers (here or in importing packages) see through it.
	for _, fd := range decls {
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil || c.hot[fn] {
			continue
		}
		if sites := c.allocSites(fd); len(sites) > 0 {
			pass.ExportObjectFact(fn, &AllocFact{Why: sites[0].why})
		}
	}

	// Pass 3: flag allocation sites and allocating callees inside hotpath
	// bodies.
	for _, fd := range decls {
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil || !c.hot[fn] {
			continue
		}
		for _, site := range c.allocSites(fd) {
			pass.ReportRangef(site.node, "%s in //mldcs:hotpath function %s; hot paths must not allocate — reuse scratch buffers or hoist the allocation to setup (docs/PERFORMANCE.md)",
				site.why, fd.Name.Name)
		}
		c.checkCallees(fd)
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
	hot  map[*types.Func]bool
}

func hasDirective(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, cmt := range cg.List {
		text := strings.TrimLeft(strings.TrimPrefix(cmt.Text, "//"), " \t")
		if text == Directive || strings.HasPrefix(text, Directive+" ") {
			return true
		}
	}
	return false
}

// allocSites walks fd's body and collects allocation-inducing constructs.
func (c *checker) allocSites(fd *ast.FuncDecl) []allocSite {
	info := c.pass.TypesInfo
	backed := c.backedLocals(fd)
	var sites []allocSite
	add := func(n ast.Node, why string) { sites = append(sites, allocSite{n, why}) }
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(e)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				add(e, "map literal")
			case *types.Slice:
				add(e, "slice literal")
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					add(e, "heap-escaping &composite literal")
				}
			}
		case *ast.CallExpr:
			switch callee := ast.Unparen(e.Fun).(type) {
			case *ast.Ident:
				switch info.Uses[callee] {
				case types.Universe.Lookup("make"):
					add(e, "make")
					return true
				case types.Universe.Lookup("new"):
					add(e, "new")
					return true
				case types.Universe.Lookup("append"):
					if len(e.Args) > 0 && !c.scratchBacked(e.Args[0], backed) {
						add(e, "append to non-scratch slice")
					}
					return true
				}
			}
			if fn := callee(info, e); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				add(e, "call into fmt")
				return true
			}
			c.boxingSites(e, add)
		case *ast.FuncLit:
			if caps := c.captures(e); len(caps) > 0 {
				add(e, "closure capturing "+strings.Join(caps, ", "))
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if tv, ok := info.Types[e]; ok && tv.Value == nil && isString(tv.Type) {
					add(e, "string concatenation")
				}
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 {
				if tv, ok := info.Types[e.Lhs[0]]; ok && isString(tv.Type) {
					add(e, "string concatenation")
				}
			}
		}
		return true
	})
	return sites
}

// scratchBacked reports whether an append destination grows without
// per-call heap traffic under the repository's reuse conventions:
//
//   - a field selector (x.f): the buffer lives in a struct that outlives
//     the call (a scratch, a kinState), so growth is
//     amortized across calls, which is exactly what AllocsPerRun's
//     "zero once warm" contract means;
//   - a slice parameter of the function under analysis: the caller
//     passed the buffer (the *Into convention) and owns its growth;
//   - an explicit x[:0]-style reuse;
//   - a skyline-owned named type (or a slice of skyline-owned records);
//   - a local any of those flowed into (backed, from backedLocals).
//
// What remains flagged is the real bug class: appending to a slice born
// inside the call (var s []T; s := make(...); s := T{...}), which
// allocates on every invocation regardless of warmup.
func (c *checker) scratchBacked(e ast.Expr, backed map[types.Object]bool) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SliceExpr:
		return true // append(dst[:0], ...) — reuse idiom, caller owns growth
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[e]; obj != nil && backed[obj] {
			return true
		}
	case *ast.SelectorExpr:
		if sel, ok := c.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return true // field of a longer-lived struct
		}
		if t := c.pass.TypesInfo.TypeOf(e.X); t != nil && isScratch(t) {
			return true
		}
	case *ast.CallExpr:
		// append(backed, ...) returns the same (possibly regrown) buffer.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && len(e.Args) > 0 {
			if c.pass.TypesInfo.Uses[id] == types.Universe.Lookup("append") {
				return c.scratchBacked(e.Args[0], backed)
			}
		}
	}
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	if skylineOwned(t) {
		return true
	}
	if sl, ok := t.Underlying().(*types.Slice); ok && skylineOwned(sl.Elem()) {
		return true
	}
	return false
}

// backedLocals seeds the function's slice parameters (caller-owned
// buffers per the *Into convention) and runs a small fixpoint over fd's
// assignments so locals initialized from scratch-backed expressions
// (bps := sc.bps[:0]) stay recognized at their append sites.
func (c *checker) backedLocals(fd *ast.FuncDecl) map[types.Object]bool {
	info := c.pass.TypesInfo
	backed := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					if _, ok := obj.Type().Underlying().(*types.Slice); ok {
						backed[obj] = true
					}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !c.scratchBacked(as.Rhs[i], backed) {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !backed[obj] {
					backed[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return backed
}

// skylineOwned reports whether t is a named type declared in the skyline
// package.
func skylineOwned(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == SkylinePath
}

func isScratch(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == SkylinePath && obj.Name() == "Scratch"
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// boxingSites flags concrete values passed to interface parameters.
func (c *checker) boxingSites(call *ast.CallExpr, add func(ast.Node, string)) {
	info := c.pass.TypesInfo
	fn := callee(info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos && i == params.Len()-1 {
				pt = params.At(params.Len() - 1).Type() // spread: arg is already the slice
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil || tv.IsNil() {
			continue
		}
		if types.IsInterface(tv.Type) {
			continue // interface-to-interface, no box
		}
		if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
			continue // pointers box without copying the pointee; still an
			// iface header but allocation-free for pointer-shaped values
		}
		add(arg, "interface boxing of "+tv.Type.String()+" argument")
	}
}

// captures lists free variables a FuncLit closes over (excluding
// package-level objects, which cost nothing to reference).
func (c *checker) captures(lit *ast.FuncLit) []string {
	info := c.pass.TypesInfo
	var names []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || seen[obj] {
			return true
		}
		// Free means declared outside the literal but not at package scope.
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return true
		}
		seen[obj] = true
		names = append(names, obj.Name())
		return true
	})
	return names
}

// checkCallees flags calls from a hotpath function to non-hotpath
// functions known (locally or by imported fact) to allocate.
func (c *checker) checkCallees(fd *ast.FuncDecl) {
	info := c.pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if c.hot[fn] {
			return true // hotpath callee is checked at its own declaration
		}
		var hot HotFact
		if c.pass.ImportObjectFact(fn, &hot) {
			return true
		}
		var alloc AllocFact
		if c.pass.ImportObjectFact(fn, &alloc) {
			c.pass.ReportRangef(call, "call from //mldcs:hotpath function %s to %s, which allocates (%s); annotate the helper //mldcs:hotpath and fix it, or hoist the call (docs/PERFORMANCE.md)",
				fd.Name.Name, fn.Name(), alloc.Why)
		}
		return true
	})
}

// callee resolves the *types.Func a call statically invokes, or nil.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
