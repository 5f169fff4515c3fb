package lint

import (
	"go/ast"
	"strings"
)

// storeImpls names the core.Store implementations whose mutations
// must be epoch-accounted, per module-relative package directory.
// Every evaluation-cache key is prefixed with the store epoch; one
// mutation that forgets to bump it lets a stale cached result survive
// the mutation — the exact bug class the composite-epoch
// design exists to make impossible.
var storeImpls = map[string][]string{
	"internal/engine": {"Engine"},
	"internal/remote": {"Cluster"},
}

// mutationVerbs are the lifecycle mutations of the core.Store
// contract (plus the cluster's Load/Sync, which replace the whole
// view). Any exported method with one of these names on a store
// implementation must reach an epoch bump.
var mutationVerbs = map[string]bool{
	"Append":     true,
	"AppendRows": true,
	"Delete":     true,
	"Window":     true,
	"Compact":    true,
	"Load":       true,
	"Sync":       true,
	"Reset":      true,
}

// Epoch verifies the one-epoch-per-mutation contract: every exported
// mutating method on a store implementation must — directly or
// through the helpers it calls — bump the data epoch (an epoch.Add /
// epoch.Store call, e.g. via finishMutationLocked). The check is a
// reachability one: a conditional bump ("only when something
// changed") satisfies it, a missing bump never does.
var Epoch = &Analyzer{
	Name: "epoch",
	Doc:  "every mutating store method must reach an epoch bump",
	Run:  runEpoch,
}

func runEpoch(pass *Pass) {
	var impls []string
	for dir, names := range storeImpls {
		if inScope(pass.RelDir, []string{dir}) {
			impls = names
		}
	}
	if impls == nil {
		return
	}
	checked := make(map[string]bool, len(impls))
	for _, n := range impls {
		checked[n] = true
	}

	// Collect every method of a checked type, its direct bumps, and
	// the method names it calls.
	type method struct {
		decl  *ast.FuncDecl
		bumps bool
		calls map[string]bool
	}
	var methods []*method
	byName := make(map[string][]*method)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !checked[recvTypeName(fd)] {
				continue
			}
			m := &method{decl: fd, calls: make(map[string]bool)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					s := exprString(sel)
					if strings.HasSuffix(s, ".epoch.Add") || strings.HasSuffix(s, ".epoch.Store") {
						m.bumps = true
					}
					m.calls[sel.Sel.Name] = true
				}
				return true
			})
			methods = append(methods, m)
			byName[fd.Name.Name] = append(byName[fd.Name.Name], m)
		}
	}

	// Fixpoint: a method bumps if any method it calls (resolved by
	// name against the checked types' method sets — embedding keeps
	// exact receiver resolution out of reach of pure syntax, and a
	// name-level over-approximation can only miss false positives)
	// bumps.
	for changed := true; changed; {
		changed = false
		for _, m := range methods {
			if m.bumps {
				continue
			}
			for name := range m.calls {
				for _, callee := range byName[name] {
					if callee.bumps {
						m.bumps = true
						changed = true
					}
				}
			}
		}
	}

	for _, m := range methods {
		name := m.decl.Name.Name
		if !ast.IsExported(name) || !mutationVerbs[name] || m.bumps {
			continue
		}
		pass.Reportf(m.decl.Pos(), "%s mutates the store but never reaches an epoch bump: a stale cached evaluation could survive this mutation", funcName(m.decl))
	}
}
