package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// determinismScope lists the module-relative directories whose results
// must be bit-identical across backends: everything that can reach a
// matched set, a regression, or an RNG stream. cmd/ and examples/ are
// presentation, internal/rng is the one blessed math/rand consumer,
// and tests are skipped by the driver.
var determinismScope = []string{
	"internal/core",
	"internal/engine",
	"internal/remote",
	"internal/obs",
}

// clockOwner is the one directory allowed to read the wall clock:
// internal/obs owns the module's monotonic Clock seam, and every other
// instrumented package measures durations only through obs.Registry.Now.
// The other determinism rules (math/rand, map iteration) still apply
// there — owning the clock is not a license for nondeterminism.
const clockOwner = "internal/obs"

// Determinism enforces the reproducibility ground rules inside the
// evaluation core: no global math/rand (every stochastic component
// draws from a seeded internal/rng.Source), no wall clock (results
// must not depend on when they run), and no ranging over maps (Go
// randomizes iteration order per run; iterate a sorted key slice
// instead). The engine's bit-identical-across-backends guarantee
// rests on exactly these three rules.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid math/rand, wall-clock reads and map iteration in the evaluation core",
	Run:  runDeterminism,
}

func inScope(relDir string, scope []string) bool {
	for _, s := range scope {
		if relDir == s || strings.HasPrefix(relDir, s+"/") {
			return true
		}
	}
	return false
}

func runDeterminism(pass *Pass) {
	if !inScope(pass.RelDir, determinismScope) {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if v, err := strconv.Unquote(imp.Path.Value); err == nil && (v == "math/rand" || v == "math/rand/v2") {
				pass.Reportf(imp.Pos(), "import of %s: all randomness must come from a seeded internal/rng.Source", v)
			}
		}
		timeName := importName(f, "time")
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.SelectorExpr:
				if timeName != "" && isIdent(node.X, timeName) && !inScope(pass.RelDir, []string{clockOwner}) {
					switch node.Sel.Name {
					case "Now", "Since", "Until":
						pass.Reportf(node.Pos(), "time.%s reads the wall clock: results must not depend on when they run", node.Sel.Name)
					}
				}
			case *ast.RangeStmt:
				if tv, ok := pass.Info.Types[node.X]; ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(node.Pos(), "ranging over a map iterates in nondeterministic order; collect and sort the keys instead")
					}
				}
			}
			return true
		})
	}
}
