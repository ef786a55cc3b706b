package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// metricNameMethods are the obs.Recorder methods whose first argument
// is a metric or span name subject to the registry rule.
var metricNameMethods = map[string]bool{
	"Counter":        true,
	"Gauge":          true,
	"Timer":          true,
	"Histogram":      true,
	"LabeledCounter": true,
	"LabeledGauge":   true,
	"StartSpan":      true,
}

// MetricNames enforces the metric-name registry: every counter, gauge,
// timer, histogram or span name handed to an obs.Recorder must be a
// constant from internal/obs/names.go, or the result of one of its
// builder functions. A raw string literal at a call site can drift from
// the dashboards and the bench validators silently; the registry makes
// the full name vocabulary greppable in one file and lets the compiler
// catch typos. The obs package itself is exempt — names.go has to spell
// the strings somewhere.
var MetricNames = &Analyzer{
	Name: "metricnames",
	Doc:  "obs metric and span names come from the internal/obs/names.go registry, never ad-hoc strings",
	Applies: func(relPath string) bool {
		return relPath != "internal/obs"
	},
	Run: runMetricNames,
}

func runMetricNames(pass *Pass) {
	for _, f := range pass.Files {
		c := &nameCheck{pass: pass, assigns: localAssignments(pass.TypesInfo, f)}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !metricNameMethods[sel.Sel.Name] {
				return true
			}
			if m, _ := namedTypeIs(typeOf(pass.TypesInfo, sel.X), obsPkg, "Recorder"); !m {
				return true
			}
			if !c.registryName(call.Args[0], 4) {
				pass.Reportf(call.Args[0].Pos(),
					"%s name must come from the internal/obs/names.go registry (a constant or builder call)", sel.Sel.Name)
			}
			return true
		})
	}
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// nameCheck carries one file's context for the registry check.
type nameCheck struct {
	pass    *Pass
	assigns map[types.Object][]ast.Expr
}

// registryName reports whether the expression provably denotes a name
// from the registry: a names.go constant, a call to a names.go builder,
// or a local variable whose assignments all qualify. depth bounds the
// variable chase.
func (c *nameCheck) registryName(e ast.Expr, depth int) bool {
	if depth == 0 {
		return false
	}
	info := c.pass.TypesInfo
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.registryName(e.X, depth)
	case *ast.SelectorExpr:
		return c.namesObject(info.Uses[e.Sel])
	case *ast.Ident:
		obj := info.Uses[e]
		if c.namesObject(obj) {
			return true
		}
		if obj == nil {
			return false
		}
		exprs := c.assigns[obj]
		if len(exprs) == 0 {
			return false
		}
		for _, rhs := range exprs {
			if !c.registryName(rhs, depth-1) {
				return false
			}
		}
		return true
	case *ast.CallExpr:
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			return c.namesObject(info.Uses[fun])
		case *ast.SelectorExpr:
			return c.namesObject(info.Uses[fun.Sel])
		}
	}
	return false
}

// namesObject reports whether the object is a constant or function
// declared in the obs package's names.go — the one file allowed to
// spell name strings.
func (c *nameCheck) namesObject(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != obsPkg {
		return false
	}
	switch obj.(type) {
	case *types.Const, *types.Func:
	default:
		return false
	}
	return filepath.Base(c.pass.Fset.Position(obj.Pos()).Filename) == "names.go"
}

// localAssignments maps each local variable object to the expressions
// assigned to it in the file, so a `name := obs.MetricFoo` can be
// traced from its use site.
func localAssignments(info *types.Info, f *ast.File) map[types.Object][]ast.Expr {
	assigns := make(map[types.Object][]ast.Expr)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			assigns[obj] = append(assigns[obj], rhs)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return assigns
}
