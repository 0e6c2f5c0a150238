// Package epspolicy is the AST-aware successor to scripts/lint-eps.sh: it
// enforces the repository's epsilon policy (docs/NUMERICS.md), under which
// every tolerance-bearing comparison outside internal/geom must go through
// a predicate in internal/geom/predicates.go or internal/geom/angle.go.
//
// Unlike the old line-oriented grep, this analyzer resolves identifiers
// through the type checker, so it also catches
//
//   - comparisons split across lines (`d <=\n    r+geom.Eps`),
//   - import-aliased references (`import g "repro/internal/geom"` followed
//     by `x > g.AngleEps`),
//   - locally-propagated tolerances (`tol := geom.Eps; ...; d <= r+tol`),
//
// none of which the grep could see. It additionally flags locally declared
// epsilon-like float constants (`const tieEps = 1e-9`), which resurrect
// the divergent-tolerance problem the predicates layer exists to prevent.
//
// Taint stops at integer expressions: converting an Eps-widened scan
// window to a cell index (`int((x+r+geom.Eps)/cell)`) and comparing that
// index is legitimate, because the tolerance has already been absorbed
// into a discrete quantity by the conversion.
package epspolicy

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/allowdirective"
)

// GeomPath is the import path of the predicates layer. Fixture packages
// under testdata/src use the same path so the analyzer logic is identical
// in tests and in production runs.
const GeomPath = "repro/internal/geom"

const Name = "epspolicy"

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "flag raw comparisons against geom.Eps/AngleEps/RhoEps/FarRootMargin/FarRootResidual outside\n" +
		"internal/geom; tolerance comparisons must use the predicates in internal/geom (docs/NUMERICS.md)",
	Run: run,
}

// predicateHint maps each tolerance constant to the predicates that
// replace raw comparisons with it.
var predicateHint = map[string]string{
	"Eps":             "LinkWithin, LinkWithin2, Reaches, LengthEq, ZeroLength",
	"AngleEps":        "AngleEq, AngleLess, AngleInSpan, AngleSliver, CoversAngle",
	"RhoEps":          "RhoCmp, RhoCovers",
	"FarRootMargin":   "HubWellInside",
	"FarRootResidual": "OnCircle",
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() == GeomPath {
		return nil, nil // the predicates layer is where raw comparisons live
	}
	c := &checker{pass: pass, tainted: map[types.Object]string{}}
	c.propagate()
	for _, file := range pass.Files {
		if allowdirective.InTestFile(pass.Fset, file.Pos()) {
			continue
		}
		c.file = file
		ast.Inspect(file, c.check)
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
	file *ast.File
	// tainted maps a local const/var object to the name of the geom
	// tolerance constant its initializer (transitively) references.
	tainted map[types.Object]string
}

// epsConst reports whether obj is one of the geom tolerance constants,
// returning its name.
func (c *checker) epsConst(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != GeomPath {
		return "", false
	}
	if _, ok := predicateHint[obj.Name()]; ok {
		return obj.Name(), true
	}
	return "", false
}

func isInteger(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// refers reports whether expr's tree references a geom tolerance constant,
// directly or via a tainted local. It returns the constant's name and,
// when the reference is indirect, the local identifier it flowed through.
// Integer-typed subtrees are skipped: a tolerance absorbed into an index
// by an int conversion is no longer a tolerance comparison.
func (c *checker) refers(expr ast.Expr) (constName, via string, found bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := c.pass.TypesInfo.Types[e]; ok && isInteger(tv.Type) {
			return false
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.TypesInfo.Uses[id]
		if name, ok := c.epsConst(obj); ok {
			constName, found = name, true
			return false
		}
		if name, ok := c.tainted[obj]; ok {
			constName, via, found = name, id.Name, true
			return false
		}
		return true
	})
	return constName, via, found
}

// propagate computes the tainted set: local consts/vars whose initializer
// or assignment references a tolerance constant, iterated to a fixpoint so
// chains (`a := geom.Eps; b := 2 * a`) are followed.
func (c *checker) propagate() {
	info := c.pass.TypesInfo
	taint := func(id *ast.Ident, rhs ast.Expr) bool {
		if id.Name == "_" || rhs == nil {
			return false
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id] // plain `=` assignment to an existing var
		}
		if obj == nil || isInteger(obj.Type()) {
			return false
		}
		if _, done := c.tainted[obj]; done {
			return false
		}
		if name, _, ok := c.refers(rhs); ok {
			c.tainted[obj] = name
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, file := range c.pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.ValueSpec:
					for i, name := range st.Names {
						var rhs ast.Expr
						switch {
						case len(st.Values) == len(st.Names):
							rhs = st.Values[i]
						case len(st.Values) == 1:
							rhs = st.Values[0]
						}
						if taint(name, rhs) {
							changed = true
						}
					}
				case *ast.AssignStmt:
					if len(st.Lhs) != len(st.Rhs) {
						break
					}
					for i, lhs := range st.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && taint(id, st.Rhs[i]) {
							changed = true
						}
					}
				}
				return true
			})
		}
	}
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// epsName reports whether a declared name is epsilon-like: "eps",
// "epsilon", or any name with an Eps/Epsilon suffix ("tieEps", "rho_eps").
// Lowercase-embedded suffixes ("steps") do not match.
func epsName(name string) bool {
	switch {
	case strings.EqualFold(name, "eps"), strings.EqualFold(name, "epsilon"):
		return true
	case strings.HasSuffix(name, "Eps"), strings.HasSuffix(name, "Epsilon"),
		strings.HasSuffix(name, "_eps"), strings.HasSuffix(name, "_epsilon"):
		return true
	}
	return false
}

func isFloatish(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func (c *checker) check(n ast.Node) bool {
	switch e := n.(type) {
	case *ast.BinaryExpr:
		if !isComparison(e.Op) {
			return true
		}
		name, via, ok := c.refers(e.X)
		if !ok {
			name, via, ok = c.refers(e.Y)
		}
		if !ok {
			return true
		}
		if allowdirective.Allowed(c.pass.Fset, c.file, e.Pos(), Name) {
			return true
		}
		src := "geom." + name
		if via != "" {
			src += " (via " + via + ")"
		}
		c.pass.ReportRangef(e, "comparison uses %s outside internal/geom; use a geom predicate (%s) — docs/NUMERICS.md",
			src, predicateHint[name])
		return false // don't re-report nested comparisons
	case *ast.ValueSpec:
		for _, id := range e.Names {
			obj := c.pass.TypesInfo.Defs[id]
			if obj == nil || !epsName(id.Name) || !isFloatish(obj.Type()) {
				continue
			}
			if allowdirective.Allowed(c.pass.Fset, c.file, id.Pos(), Name) {
				continue
			}
			c.pass.Reportf(id.Pos(), "local epsilon constant %q outside internal/geom; tolerances are declared once, in internal/geom (docs/NUMERICS.md)", id.Name)
		}
	}
	return true
}
