// Package lint is the analysis framework behind the repolint binary:
// a dependency-free (stdlib go/ast + go/parser + go/types) analyzer
// suite that mechanically enforces the repository's determinism,
// context, epoch, lock, error and API invariants. Each invariant the
// codebase relies on — seeded RNG only, epoch-per-mutation cache
// invalidation, ctx threaded through every evaluation loop,
// sentinel-wrapped boundary errors, lock-guarded store state, the
// facade-only import policy — is encoded as one Analyzer, run over
// every package of the module.
//
// Diagnostics can be suppressed with an inline directive on the same
// line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; suppressions are counted and reported so
// their number stays reviewable.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Analyzer is one invariant check, run once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is the one-line description the -list flag prints.
	Doc string
	// Run inspects one package and reports violations via pass.Reportf.
	Run func(pass *Pass)
}

// All is the full suite, in the order diagnostics are grouped.
var All = []*Analyzer{
	Determinism,
	CtxDiscipline,
	Epoch,
	Locks,
	ErrWrap,
	APIPolicy,
}

// Pass carries everything an analyzer sees of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// RelDir is the package directory relative to the module root,
	// slash-separated ("" for the root package).
	RelDir string
	// Module is the module path from go.mod; RelDir appended to it is
	// the package's import path.
	Module string
	// Info holds best-effort type information: module-internal types
	// resolve fully, identifiers from standard-library imports may
	// not (their packages are stubbed so the module never needs
	// go.sum). Analyzers must treat missing type info as "unknown",
	// never as a violation.
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Result is one Run over a module tree.
type Result struct {
	// Diags are the surviving (unsuppressed) diagnostics, in file and
	// position order.
	Diags []Diagnostic
	// Suppressed counts diagnostics silenced by //lint:ignore
	// directives.
	Suppressed int
}

// Run lints every package under root (a directory containing go.mod,
// or any directory when module is given explicitly) with the given
// analyzers and returns the surviving diagnostics. Test files and
// testdata trees are skipped: the invariants bind the shipped code,
// and tests legitimately use context.Background, wall clocks and
// unguarded fixtures.
func Run(root, module string, analyzers []*Analyzer) (*Result, error) {
	pkgs, fset, err := load(root)
	if err != nil {
		return nil, err
	}
	typecheck(pkgs, fset, module)

	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    pkg.files,
				RelDir:   pkg.relDir,
				Module:   module,
				Info:     pkg.info,
				diags:    &diags,
			})
		}
	}

	ignores := collectIgnores(pkgs, fset)
	res := &Result{}
	for _, d := range diags {
		if ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
			ignores[ignoreKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}] {
			res.Suppressed++
			continue
		}
		res.Diags = append(res.Diags, d)
	}
	sort.Slice(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i].Pos, res.Diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return res.Diags[i].Analyzer < res.Diags[j].Analyzer
	})
	return res, nil
}

// ModuleRoot walks up from dir to the nearest go.mod and returns its
// directory and module path.
func ModuleRoot(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// pkg is one parsed package directory.
type pkg struct {
	relDir  string
	files   []*ast.File
	names   []string // file names, parallel to files
	imports []string // module-internal imports (for typecheck ordering)
	info    *types.Info
}

// load parses every non-test package under root, skipping testdata,
// hidden directories and nested modules.
func load(root string) ([]*pkg, *token.FileSet, error) {
	fset := token.NewFileSet()
	var pkgs []*pkg
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		p := &pkg{}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		p.relDir = filepath.ToSlash(rel)
		if p.relDir == "." {
			p.relDir = ""
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			fname := filepath.Join(path, e.Name())
			f, err := parser.ParseFile(fset, fname, nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("lint: %w", err)
			}
			p.files = append(p.files, f)
			p.names = append(p.names, fname)
		}
		if len(p.files) > 0 {
			pkgs = append(pkgs, p)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return pkgs, fset, nil
}

// typecheck runs go/types over every package, best-effort: module
// packages are checked in dependency order and import each other's
// real type information; standard-library imports are stubbed with
// empty packages (the module must stay dependency-free, so no export
// data is assumed). Type errors are collected and discarded —
// analyzers see partial but trustworthy info.
func typecheck(pkgs []*pkg, fset *token.FileSet, module string) {
	byPath := make(map[string]*pkg, len(pkgs))
	for _, p := range pkgs {
		path := module
		if p.relDir != "" {
			path = module + "/" + p.relDir
		}
		byPath[path] = p
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if v, err := strconv.Unquote(imp.Path.Value); err == nil && strings.HasPrefix(v, module+"/") {
					p.imports = append(p.imports, v)
				}
			}
		}
	}
	imp := &stubImporter{checked: make(map[string]*types.Package), byPath: byPath, fset: fset, module: module}
	for path := range byPath {
		imp.check(path)
	}
}

// stubImporter resolves module-internal imports by typechecking them
// on demand and stubs everything else.
type stubImporter struct {
	checked map[string]*types.Package
	byPath  map[string]*pkg
	fset    *token.FileSet
	module  string
	stack   []string // cycle guard
}

func (si *stubImporter) Import(path string) (*types.Package, error) {
	return si.check(path), nil
}

func (si *stubImporter) check(path string) *types.Package {
	if p, ok := si.checked[path]; ok {
		return p
	}
	src, isModulePkg := si.byPath[path]
	for _, s := range si.stack {
		if s == path {
			isModulePkg = false // import cycle: stub to break it
			break
		}
	}
	if !isModulePkg {
		name := path[strings.LastIndex(path, "/")+1:]
		p := types.NewPackage(path, name)
		p.MarkComplete()
		si.checked[path] = p
		return p
	}
	si.stack = append(si.stack, path)
	defer func() { si.stack = si.stack[:len(si.stack)-1] }()
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := &types.Config{
		Importer:         si,
		Error:            func(error) {}, // stubbed imports make errors expected; info stays usable
		IgnoreFuncBodies: false,
	}
	p, _ := cfg.Check(path, si.fset, si.byPath[path].files, info)
	if p == nil {
		p = types.NewPackage(path, "")
	}
	p.MarkComplete()
	src.info = info
	si.checked[path] = p
	return p
}

var ignoreRe = regexp.MustCompile(`//lint:ignore\s+(\S+)\s+\S`)

// ignoreKey addresses one //lint:ignore directive: a diagnostic is
// suppressed when a directive for its analyzer sits on its line or
// the line directly above.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

func collectIgnores(pkgs []*pkg, fset *token.FileSet) map[ignoreKey]bool {
	out := make(map[ignoreKey]bool)
	for _, p := range pkgs {
		for i, f := range p.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := ignoreRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					out[ignoreKey{p.names[i], fset.Position(c.Pos()).Line, m[1]}] = true
				}
			}
		}
	}
	return out
}

// funcName renders a FuncDecl's name with its receiver for messages.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvTypeName(fd) + "." + fd.Name.Name
}

// recvTypeName returns the bare receiver type name of a method ("" for
// functions).
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		default:
			if id, ok := t.(*ast.Ident); ok {
				return id.Name
			}
			return ""
		}
	}
}

// importName returns the local name a file binds the given import path
// to, or "" when the file does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		v, err := strconv.Unquote(imp.Path.Value)
		if err != nil || v != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

// isIdent reports whether e is the identifier name.
func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// exprString renders a (simple) expression for matching: identifiers
// and dotted selector chains only.
func exprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		base := exprString(t.X)
		if base == "" {
			return ""
		}
		return base + "." + t.Sel.Name
	case *ast.ParenExpr:
		return exprString(t.X)
	case *ast.StarExpr:
		return exprString(t.X)
	}
	return ""
}
