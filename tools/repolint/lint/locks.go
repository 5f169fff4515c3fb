package lint

import (
	"go/ast"
	"regexp"
	"strings"
)

// Locks enforces the repository's mutex conventions, which every
// concurrent structure (the engine, the result cache, the remote
// cluster and its connections) already follows in prose:
//
//   - A struct field whose comment says "guarded by <mu>" may only be
//     touched, through the receiver, by methods that lock that mutex
//     or are named *Locked (the documented "callers hold mu" shape).
//   - A method holding only the read lock must not write a guarded
//     field.
//   - Every function that calls X.Lock() must contain a matching
//     X.Unlock() (deferred or direct); likewise RLock/RUnlock. A
//     "defer X.Lock()" is always the classic typo for defer Unlock.
var Locks = &Analyzer{
	Name: "locks",
	Doc:  "guarded fields only under their mutex; every Lock has an Unlock",
	Run:  runLocks,
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

func runLocks(pass *Pass) {
	// structName -> guarded field -> mutex field name.
	guards := make(map[string]map[string]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			mutexes := make(map[string]bool)
			for _, fl := range st.Fields.List {
				t := exprString(fl.Type)
				if strings.HasSuffix(t, ".Mutex") || strings.HasSuffix(t, ".RWMutex") {
					for _, name := range fl.Names {
						mutexes[name.Name] = true
					}
				}
			}
			if len(mutexes) == 0 {
				return true
			}
			for _, fl := range st.Fields.List {
				mu := guardAnnotation(fl)
				if mu == "" || !mutexes[mu] {
					continue
				}
				if guards[ts.Name.Name] == nil {
					guards[ts.Name.Name] = make(map[string]string)
				}
				for _, name := range fl.Names {
					guards[ts.Name.Name][name.Name] = mu
				}
			}
			return true
		})
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockPairing(pass, fd)
			guarded := guards[recvTypeName(fd)]
			if len(guarded) == 0 || strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			checkGuardedAccess(pass, fd, guarded)
		}
	}
}

// guardAnnotation extracts the mutex name from a field's "guarded by
// <mu>" doc or trailing comment.
func guardAnnotation(fl *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fl.Doc, fl.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// checkGuardedAccess reports receiver accesses to guarded fields from
// a method that neither locks the guarding mutex nor is named
// *Locked.
func checkGuardedAccess(pass *Pass, fd *ast.FuncDecl, guarded map[string]string) {
	recv := receiverName(fd)
	if recv == "" {
		return
	}
	// Which mutexes does this method lock, and how?
	writeLocked := make(map[string]bool)
	readLocked := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if inner, ok := sel.X.(*ast.SelectorExpr); ok && isIdent(inner.X, recv) {
			switch sel.Sel.Name {
			case "Lock":
				writeLocked[inner.Sel.Name] = true
			case "RLock":
				readLocked[inner.Sel.Name] = true
			}
		}
		return true
	})

	writes := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				writes[lhs] = true
			}
		case *ast.IncDecStmt:
			writes[node.X] = true
		}
		return true
	})

	reported := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !isIdent(sel.X, recv) {
			return true
		}
		mu, ok := guarded[sel.Sel.Name]
		if !ok || reported[sel.Sel.Name] {
			return true
		}
		switch {
		case !writeLocked[mu] && !readLocked[mu]:
			reported[sel.Sel.Name] = true
			pass.Reportf(sel.Pos(), "%s touches %s.%s (guarded by %s) without locking %s and is not named *Locked",
				funcName(fd), recv, sel.Sel.Name, mu, mu)
		case writes[ast.Expr(sel)] && !writeLocked[mu]:
			reported[sel.Sel.Name] = true
			pass.Reportf(sel.Pos(), "%s writes %s.%s (guarded by %s) while holding only the read lock",
				funcName(fd), recv, sel.Sel.Name, mu)
		}
		return true
	})
}

// receiverName returns the method's receiver identifier ("" when
// anonymous).
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// checkLockPairing reports Lock calls with no matching Unlock in the
// same function, and the defer-Lock typo.
func checkLockPairing(pass *Pass, fd *ast.FuncDecl) {
	type counts struct {
		lock, unlock, rlock, runlock int
		firstLock, firstRLock        ast.Node
	}
	perMutex := make(map[string]*counts)
	get := func(base string) *counts {
		c := perMutex[base]
		if c == nil {
			c = &counts{}
			perMutex[base] = c
		}
		return c
	}
	classify := func(call *ast.CallExpr, deferred bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		base := exprString(sel.X)
		if base == "" || len(call.Args) != 0 {
			return
		}
		switch sel.Sel.Name {
		case "Lock":
			if deferred {
				pass.Reportf(call.Pos(), "defer %s.Lock() — the classic typo for defer %s.Unlock()", base, base)
				return
			}
			c := get(base)
			c.lock++
			if c.firstLock == nil {
				c.firstLock = call
			}
		case "RLock":
			if deferred {
				pass.Reportf(call.Pos(), "defer %s.RLock() — the classic typo for defer %s.RUnlock()", base, base)
				return
			}
			c := get(base)
			c.rlock++
			if c.firstRLock == nil {
				c.firstRLock = call
			}
		case "Unlock":
			get(base).unlock++
		case "RUnlock":
			get(base).runlock++
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.DeferStmt:
			classify(node.Call, true)
			return false // the deferred call is handled; its args still walked below is unnecessary
		case *ast.CallExpr:
			classify(node, false)
		}
		return true
	})
	for base, c := range perMutex {
		if c.lock > 0 && c.unlock == 0 {
			pass.Reportf(c.firstLock.Pos(), "%s calls %s.Lock() but never %s.Unlock()", funcName(fd), base, base)
		}
		if c.rlock > 0 && c.runlock == 0 {
			pass.Reportf(c.firstRLock.Pos(), "%s calls %s.RLock() but never %s.RUnlock()", funcName(fd), base, base)
		}
	}
}
