package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strconv"
)

// guardPkg and obsPkg are the import paths of the governance and
// observability packages several analyzers recognise by type.
const (
	guardPkg = "multijoin/internal/guard"
	obsPkg   = "multijoin/internal/obs"
)

// importNames maps a file's local package identifiers to import paths
// (explicit aliases first, else the path's base name).
func importNames(f *ast.File) map[string]string {
	m := make(map[string]string, len(f.Imports))
	for _, spec := range f.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(p)
		if spec.Name != nil {
			name = spec.Name.Name
			if name == "_" || name == "." {
				continue
			}
		}
		m[name] = p
	}
	return m
}

// calleePkgFunc resolves a call of the form pkg.Func(...) to its
// package path and function name. Type information is authoritative
// when present (so a variable shadowing a package name is not
// misreported); otherwise the file's import table decides.
func calleePkgFunc(info *types.Info, imports map[string]string, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	if info != nil {
		if obj, found := info.Uses[x]; found {
			pn, isPkg := obj.(*types.PkgName)
			if !isPkg {
				return "", "", false
			}
			return pn.Imported().Path(), sel.Sel.Name, true
		}
	}
	p, found := imports[x.Name]
	if !found {
		return "", "", false
	}
	return p, sel.Sel.Name, true
}

// funcScope is one function body (declaration or literal) with its
// source extent, used to find the innermost function enclosing a node.
type funcScope struct {
	node ast.Node
	body *ast.BlockStmt
}

// funcScopes collects every function body in the file.
func funcScopes(f *ast.File) []funcScope {
	var scopes []funcScope
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				scopes = append(scopes, funcScope{node: fn, body: fn.Body})
			}
		case *ast.FuncLit:
			scopes = append(scopes, funcScope{node: fn, body: fn.Body})
		}
		return true
	})
	return scopes
}

// enclosingFunc returns the innermost function body containing pos, or
// nil when pos is outside every function (package-level expression).
func enclosingFunc(scopes []funcScope, pos token.Pos) *ast.BlockStmt {
	var best *funcScope
	for i := range scopes {
		s := &scopes[i]
		if s.node.Pos() <= pos && pos < s.node.End() {
			if best == nil || s.node.Pos() >= best.node.Pos() {
				best = s
			}
		}
	}
	if best == nil {
		return nil
	}
	return best.body
}

// inspectSameFunc walks body without descending into nested function
// literals, so "in the same function" means exactly that.
func inspectSameFunc(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return fn(n)
	})
}

// isBuiltin reports whether the identifier resolves to the named
// built-in function (panic, recover). Without type information it falls
// back to a name match, which is correct unless the package shadows the
// built-in — something the engine never does.
func isBuiltin(info *types.Info, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	if info != nil {
		if obj, found := info.Uses[id]; found {
			_, isB := obj.(*types.Builtin)
			return isB
		}
	}
	return true
}

// callsRecover reports whether the node's subtree contains a call of
// the recover built-in.
func callsRecover(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && isBuiltin(info, id, "recover") {
				found = true
			}
		}
		return !found
	})
	return found
}

// namedTypeIs reports whether t (after pointer indirection) is the
// named type pkgPath.name. It returns ok=false when t is nil or not a
// named type, so callers can distinguish "types disagree" from "no type
// information".
func namedTypeIs(t types.Type, pkgPath, name string) (match, ok bool) {
	if t == nil {
		return false, false
	}
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false, false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false, false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name, true
}
