package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrTaxonomy enforces the typed failure taxonomy at the service
// boundary. The journal's failure classes and the HTTP status mapping
// both switch on errors.Is against the sentinel set in internal/jobs —
// an error that reaches them unclassified falls into ClassFatal and a
// 500, whatever its real cause. So inside the configured service
// packages, every exported
// function that returns an error must return classified errors: a
// return statement whose error operand is a bare errors.New(...) call,
// or a fmt.Errorf(...) whose format string has no %w verb, is flagged.
//
// The check is deliberately local (direct returns inside exported
// functions only): package-level sentinel definitions, unexported
// helpers, and error values threaded through variables are out of
// scope, which keeps it free of false positives on the taxonomy's own
// `var ErrX = errors.New(...)` declarations.
type ErrTaxonomy struct {
	svc map[string]bool
}

// NewErrTaxonomy builds the analyzer for the given service-boundary
// package import paths.
func NewErrTaxonomy(svcPkgs ...string) *ErrTaxonomy {
	m := make(map[string]bool, len(svcPkgs))
	for _, p := range svcPkgs {
		m[p] = true
	}
	return &ErrTaxonomy{svc: m}
}

// Name implements Analyzer.
func (a *ErrTaxonomy) Name() string { return "errtaxonomy" }

// Package implements Analyzer.
func (a *ErrTaxonomy) Package(p *Pass) {
	if !a.svc[p.Pkg.Path] {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if !returnsError(p, fd) {
				continue
			}
			a.checkBody(p, fd)
		}
	}
}

// returnsError reports whether fd's result list includes an error.
func returnsError(p *Pass, fd *ast.FuncDecl) bool {
	obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	res := obj.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// checkBody flags bare error constructions returned directly from fd.
// Returns inside nested function literals belong to the literal, not
// the exported boundary, and are skipped.
func (a *ErrTaxonomy) checkBody(p *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				a.checkResult(p, name, res)
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// checkResult flags res when it is a bare errors.New or a %w-less
// fmt.Errorf call in error position.
func (a *ErrTaxonomy) checkResult(p *Pass, fn string, res ast.Expr) {
	call, ok := res.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	callee := pkgLevelFunc(p, sel)
	if callee == nil {
		return
	}
	switch {
	case callee.Pkg().Path() == "errors" && callee.Name() == "New":
		p.Reportf(a.Name(), res.Pos(),
			"exported %s returns a bare errors.New error; wrap a taxonomy sentinel (fmt.Errorf(\"%%w: ...\", ErrX)) so Classify can bucket it", fn)
	case callee.Pkg().Path() == "fmt" && callee.Name() == "Errorf":
		if len(call.Args) == 0 {
			return
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok {
			return // dynamic format string: out of scope
		}
		if !strings.Contains(lit.Value, "%w") {
			p.Reportf(a.Name(), res.Pos(),
				"exported %s returns fmt.Errorf without %%w; wrap a taxonomy sentinel so the error stays classifiable", fn)
		}
	}
}
