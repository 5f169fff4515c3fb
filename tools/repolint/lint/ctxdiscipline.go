package lint

import (
	"go/ast"
)

// evalVerbs are the entry points of the evaluation data plane: the
// single-rule and batch evaluations and the batch match. Everything
// that reaches them must be cancellable: every run loop threads a
// context.Context precisely so a training pass over a remote cluster
// can be interrupted; a caller that conjures a root context mid-stack
// silently severs that chain.
var evalVerbs = map[string]bool{
	"Evaluate":    true,
	"EvaluateAll": true,
	"MatchBatch":  true,
}

// CtxDiscipline enforces the context chain: context.Background() and
// context.TODO() belong only in main functions (and tests, which the
// driver skips) — everywhere else the context must arrive as a
// parameter; and any function calling the evaluation verbs
// (Evaluate, EvaluateAll, MatchBatch) must itself take a
// context.Context so cancellation reaches the data plane.
var CtxDiscipline = &Analyzer{
	Name: "ctx",
	Doc:  "no context.Background/TODO outside main; eval/match callers must take a ctx",
	Run:  runCtxDiscipline,
}

func runCtxDiscipline(pass *Pass) {
	for _, f := range pass.Files {
		ctxName := importName(f, "context")
		isMainPkg := f.Name.Name == "main"
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			exemptRoot := isMainPkg && fd.Recv == nil && fd.Name.Name == "main"
			hasCtxParam := false
			if fd.Type.Params != nil {
				for _, p := range fd.Type.Params.List {
					if ctxName != "" && exprString(p.Type) == ctxName+".Context" {
						hasCtxParam = true
					}
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if ctxName != "" && isIdent(sel.X, ctxName) &&
					(sel.Sel.Name == "Background" || sel.Sel.Name == "TODO") && !exemptRoot {
					pass.Reportf(call.Pos(), "context.%s outside func main severs the cancellation chain; accept a ctx parameter instead", sel.Sel.Name)
				}
				if evalVerbs[sel.Sel.Name] && !hasCtxParam && !exemptRoot {
					pass.Reportf(call.Pos(), "%s calls %s but takes no context.Context: cancellation cannot reach the evaluation data plane", funcName(fd), sel.Sel.Name)
				}
				return true
			})
		}
	}
}
