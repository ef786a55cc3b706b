// Package analysis is the engine's stdlib-only static-analysis
// framework: a small driver (module-aware file-set loading, per-package
// type-checking via go/types, positioned diagnostics, //lint:ignore
// suppression) plus the project-specific analyzers that turn the
// codebase's conventions into machine-checked invariants.
//
// The paper's program is to restrict a search space without losing the
// optimum, and to prove the restriction sound (Theorems 1–3, conditions
// C1–C4). The engine adopted the same posture for its own internals in
// earlier work — the cost-model core is deterministic so benches
// reproduce, goroutines sit behind panic boundaries, metric names come
// from one registry — but those invariants held only by convention. This
// package makes them checkable: `joinlint ./...` fails the build when a
// new call site breaks one.
//
// The framework deliberately uses only go/parser, go/ast, go/types and
// go/importer — no module dependencies — so the linter builds anywhere
// the engine builds.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one positioned finding from an analyzer (or from the
// driver itself, for malformed suppression directives).
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the check that produced the finding ("determinism",
	// …, or "lint" for driver-level directive problems).
	Analyzer string
	// Message describes the violation.
	Message string
	// Suppressed marks a finding silenced by a //lint:ignore directive.
	// RunAnalyzers drops suppressed findings; RunAnalyzersAll keeps them
	// flagged so machine consumers (joinlint -json) can audit waivers.
	Suppressed bool
}

// String renders the diagnostic in the conventional
// file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is the one-line description `joinlint -list` prints.
	Doc string
	// Applies reports whether the analyzer runs on the package with the
	// given module-relative path ("" for the module root,
	// "internal/database", "cmd/joinlint", …). A nil Applies means the
	// analyzer runs everywhere.
	Applies func(relPath string) bool
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package: the parsed files,
// the (possibly partial) type information, and the report sink.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset positions every file in the pass.
	Fset *token.FileSet
	// Files are the package's parsed source files.
	Files []*ast.File
	// RelPath is the package's module-relative path ("" for the root).
	RelPath string
	// TypesPkg is the type-checked package; it may be incomplete when
	// an import could not be resolved (analyzers degrade to syntactic
	// matching in that case).
	TypesPkg *types.Package
	// TypesInfo records uses, selections and types for the files; never
	// nil, but possibly sparse for code with type errors.
	TypesInfo *types.Info
	// Mod is the module-wide flow database (call graph with
	// blocking/lock summaries, atomic-field registry, lock-order
	// findings), built once per driver run and shared by every pass. It
	// is nil only when a pass is constructed by hand without a module.
	Mod *Module

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}
