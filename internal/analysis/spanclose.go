package analysis

import (
	"go/ast"
	"strings"
)

// SpanClose requires every span opened with obs StartSpan to be closed in the function that opened it: the result must be bound to
// a local whose `.End()` appears somewhere in the enclosing function —
// directly, deferred, or inside a function literal the function installs
// (the beginPhase closer pattern) — or the span must escape to a caller
// (returned, passed as an argument, stored in a field or composite
// literal). A span that is never ended never joins the trace buffer, so
// its guard deltas silently vanish from the reconciliation the serve
// tests assert; this analyzer turns that leak into a build failure. The
// obs package itself is exempt — it is the implementation.
var SpanClose = &Analyzer{
	Name: "spanclose",
	Doc:  "every obs.StartSpan result must be ended in the opening function or escape to a caller",
	Applies: func(rel string) bool {
		return strings.HasPrefix(rel, "internal/") && rel != "internal/obs"
	},
	Run: runSpanClose,
}

func runSpanClose(pass *Pass) {
	for _, f := range pass.Files {
		scopes := funcScopes(f)
		for i := range scopes {
			checkSpanScope(pass, &scopes[i])
		}
	}
}

// checkSpanScope inspects one function body's own statements (nested
// literals are their own scopes) for span starts and verifies each.
func checkSpanScope(pass *Pass, scope *funcScope) {
	inspectSameFunc(scope.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok && isSpanStart(pass, call) {
				pass.Reportf(call.Pos(),
					"span started and discarded; bind it and call End, or the span never joins the trace")
			}
		case *ast.AssignStmt:
			checkSpanAssign(pass, scope, st)
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						checkSpanValueSpec(pass, scope, vs)
					}
				}
			}
		}
		return true
	})
}

// checkSpanAssign verifies span starts on the right-hand side of an
// assignment. Only 1:1 assignments can carry a span start (the API
// returns a single value), so positions line up.
func checkSpanAssign(pass *Pass, scope *funcScope, st *ast.AssignStmt) {
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, rhs := range st.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isSpanStart(pass, call) {
			continue
		}
		checkSpanBinding(pass, scope, st.Lhs[i], call)
	}
}

// checkSpanValueSpec verifies span starts in `var x = ...` declarations.
func checkSpanValueSpec(pass *Pass, scope *funcScope, vs *ast.ValueSpec) {
	if len(vs.Names) != len(vs.Values) {
		return
	}
	for i, v := range vs.Values {
		call, ok := v.(*ast.CallExpr)
		if !ok || !isSpanStart(pass, call) {
			continue
		}
		checkSpanBinding(pass, scope, vs.Names[i], call)
	}
}

// checkSpanBinding classifies where a span-start result landed: a blank
// identifier is a leak, a non-identifier target (field, map slot) is an
// escape, and a local must be ended or escape within the function.
func checkSpanBinding(pass *Pass, scope *funcScope, lhs ast.Expr, call *ast.CallExpr) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return // stored into a field or element: the span escapes
	}
	if id.Name == "_" {
		pass.Reportf(call.Pos(),
			"span assigned to _; bind it and call End, or the span never joins the trace")
		return
	}
	if !spanEndedOrEscapes(scope.body, id.Name) {
		pass.Reportf(call.Pos(),
			"span %q is never ended in this function and never escapes; call %s.End() (deferred or in a closure this function installs)",
			id.Name, id.Name)
	}
}

// isSpanStart reports whether the call is obs.(*Recorder).StartSpan.
// Type information is authoritative when present; without it the
// method name decides (the fixture and any type-broken file degrade to
// syntactic matching).
func isSpanStart(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "StartSpan" {
		return false
	}
	if tv, found := pass.TypesInfo.Types[sel.X]; found && tv.Type != nil {
		match, ok := namedTypeIs(tv.Type, obsPkg, "Recorder")
		if ok {
			return match
		}
	}
	return true
}

// spanEndedOrEscapes searches the whole function body — nested literals
// included, because a closer closure installed by the function is a
// legitimate home for End — for either `<name>.End()` or a use of the
// identifier that lets the span outlive the function.
func spanEndedOrEscapes(body *ast.BlockStmt, name string) bool {
	satisfied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if satisfied {
			return false
		}
		switch nn := n.(type) {
		case *ast.CallExpr:
			if sel, ok := nn.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == name && sel.Sel.Name == "End" {
					satisfied = true
					return false
				}
			}
			for _, arg := range nn.Args {
				if identEscapesIn(arg, name) {
					satisfied = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range nn.Results {
				if identEscapesIn(r, name) {
					satisfied = true
					return false
				}
			}
		case *ast.AssignStmt:
			// The span aliased or stored somewhere else: treat as escape.
			for _, r := range nn.Rhs {
				if identEscapesIn(r, name) {
					satisfied = true
					return false
				}
			}
		case *ast.CompositeLit:
			for _, e := range nn.Elts {
				if identEscapesIn(e, name) {
					satisfied = true
					return false
				}
			}
		case *ast.SendStmt:
			if identEscapesIn(nn.Value, name) {
				satisfied = true
				return false
			}
		}
		return true
	})
	return satisfied
}

// identEscapesIn reports whether the bare identifier appears in expr as
// a value — not merely as the receiver of a method call or field access,
// which keeps `sp.Fail(err)` and `sp.AddDelta(...)` from counting as
// escapes.
func identEscapesIn(expr ast.Expr, name string) bool {
	esc := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if esc {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
				return false // receiver position: not an escape
			}
			return true
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			esc = true
			return false
		}
		return true
	})
	return esc
}
