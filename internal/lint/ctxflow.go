package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlowAnalyzer enforces the context-threading discipline: cancellation
// must flow from the edges of the program inward, never be invented
// mid-stack.
//
// context.Background() and context.TODO() are banned outside package
// main, init functions, and _test.go files — library code that conjures
// a root context detaches itself from caller cancellation and deadlines.
// A deliberate root (a connection that outlives the request, a job
// tree's anchor) takes an //hdlint:ignore ctxflow with the reason. A
// function already holding a context.Context parameter may not mint a
// fresh root anywhere, package main included: it has a context and is
// discarding it.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc: "context.Background/TODO banned outside main/init/tests, and in any " +
		"function holding a ctx — thread the ctx",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			// Tests stand at the edge of the program: fresh roots are
			// their job, and test helpers are not part of the
			// cancellation tree.
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxFlow(pass, fd)
		}
	}
}

func isCtxType(t types.Type) bool { return isPkgType(t, "context", "Context") }

// ctxRootCall recognizes context.Background() / context.TODO(),
// returning the function's name.
func ctxRootCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Name() != "context" {
		return "", false
	}
	return sel.Sel.Name, true
}

// ctxParamName returns the name of fd's context.Context parameter, if
// any.
func ctxParamName(pass *Pass, fd *ast.FuncDecl) (string, bool) {
	for _, fld := range fd.Type.Params.List {
		t := pass.Info.Types[fld.Type].Type
		if t == nil || !isCtxType(t) {
			continue
		}
		if len(fld.Names) > 0 {
			return fld.Names[0].Name, true
		}
		return "_", true
	}
	return "", false
}

func checkCtxFlow(pass *Pass, fd *ast.FuncDecl) {
	rootAllowed := pass.Pkg.Name() == "main" || fd.Name.Name == "init"
	ctxName, holdsCtx := ctxParamName(pass, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := ctxRootCall(pass.Info, call)
		if !ok {
			return true
		}
		switch {
		case holdsCtx:
			pass.Reportf(call.Pos(),
				"context.%s() discards the in-scope context %q; derive from it (or document the detachment: //hdlint:ignore ctxflow <reason>)",
				name, ctxName)
		case !rootAllowed:
			pass.Reportf(call.Pos(),
				"context.%s() outside main, init, or tests: accept a caller's context, or document the fresh root with //hdlint:ignore ctxflow <reason>",
				name)
		}
		return true
	})
}
