package sqlmini

import (
	"reflect"
	"testing"
)

// TestResolveSymbolsResolvedTreeIsFree checks the copy-on-change contract:
// resolving an already-resolved tree returns an equal tree without a single
// allocation, over every construct ResolveSymbols descends into.
func TestResolveSymbolsResolvedTreeIsFree(t *testing.T) {
	isCol := func(s string) bool { return s == "col" || s == "other" }
	e := mustExpr(t, `case when col in (sym1, sym2) then f(col, sym3) else sym4 end ? `+
		`not (col is not null and other between lo and hi) : (col = sym5 or other <> "x" ? col = NULL : T.q = sym6)`)
	resolved := ResolveSymbols(e, isCol)
	if reflect.DeepEqual(resolved, e) {
		t.Fatal("test tree has nothing to resolve")
	}
	var again Expr
	if n := testing.AllocsPerRun(100, func() { again = ResolveSymbols(resolved, isCol) }); n != 0 {
		t.Errorf("ResolveSymbols on a resolved tree allocates %.1f times, want 0", n)
	}
	if !reflect.DeepEqual(again, resolved) {
		t.Errorf("re-resolution changed the tree:\n got %s\nwant %s", again, resolved)
	}
	// A partly resolved tree copies only the rewritten path: the untouched
	// subtree is the input's own value.
	b := mustExpr(t, `col = sym1 and other in ("a", "b")`).(Binary)
	rb := ResolveSymbols(b, isCol).(Binary)
	if !reflect.DeepEqual(rb.R, b.R) || &rb.R.(InList).Set[0] != &b.R.(InList).Set[0] {
		t.Error("unchanged IN list was copied")
	}
}
