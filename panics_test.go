package pombm_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// panicAllowlist is every panic( the serving packages may hold, keyed by file
// and enclosing function (a line number would move with every edit). A
// peer-reachable entry is one a node's failure can trigger today; the fault
// item owns replacing it with a defined outcome. A bug-only entry fires only
// on a broken invariant of this process.
var panicAllowlist = map[string]string{
	"internal/cluster/core.go (*fanCore).solveWindowOnce":   "peer-reachable, open: fault item step 1 — window rollback lost a unit when its node refused the return",
	"internal/cluster/core.go (*fanCore).SwapEpochSeq":      "peer-reachable, open: fault item step 1 — commit failed on a node after every node prepared",
	"internal/platform/slottable.go (*slotTable).addActive": "bug-only — a capacity-1 slot's assignment count left 0–1",
	"internal/platform/slottable.go (*slotTable).report":    "bug-only — the code of a stint carried from another epoch was read",
	"internal/platform/slottable.go (*slotTable).setCode":   "bug-only — a code of another length than the table's depth was stored",
	"internal/platform/slottable.go (*slotTable).push":      "bug-only — a lagging report was pushed after a current one",
}

// panicSites lists every panic call in the non-test Go files under dirs, one
// key per call: "file (Recv).Func", or "file <package scope>".
func panicSites(t *testing.T, dirs ...string) []string {
	t.Helper()
	var sites []string
	fset := token.NewFileSet()
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.ToSlash(filepath.Join(dir, name))
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				scope := "<package scope>"
				if fn, ok := d.(*ast.FuncDecl); ok {
					scope = fn.Name.Name
					if fn.Recv != nil {
						scope = fmt.Sprintf("(%s).%s", recvType(fn.Recv.List[0].Type), scope)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
							sites = append(sites, path+" "+scope)
						}
					}
					return true
				})
			}
		}
	}
	sort.Strings(sites)
	return sites
}

// recvType names a method's receiver type as it is declared, "*T" or "T",
// without type parameters.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return "*" + recvType(x.X)
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	}
	return fmt.Sprintf("%T", e)
}

// TestPanicAllowlist is a ratchet on the serving packages' panics: an
// unlisted one fails, and so does a listed one that has gone, so the list
// changes only in the change that changes the code.
func TestPanicAllowlist(t *testing.T) {
	seen := map[string]int{}
	for _, site := range panicSites(t, "internal/cluster", "internal/platform") {
		if seen[site]++; seen[site] > 1 {
			t.Errorf("%s panics in %d places; the allowlist keys one a function", site, seen[site])
		}
		if _, ok := panicAllowlist[site]; !ok {
			t.Errorf("unlisted panic in %s: give the failure a defined outcome, or list it with its reason", site)
		}
	}
	for site := range panicAllowlist {
		if seen[site] == 0 {
			t.Errorf("allowlisted panic in %s is gone: delete its entry", site)
		}
	}
}
