package sqlmini

import (
	"fmt"
	"sort"

	"coherdb/internal/delta"
)

// StmtInputs extracts the (table, columns-read) dependency list of a parsed
// statement — the planner-level column bindings the delta layer's
// dependency graph is populated from. A SELECT's inputs are every table in
// FROM/JOIN with the columns its expressions reference; DML statements
// depend on their target table. Attribution is conservative: an unqualified
// column in a multi-table query is charged to every table in scope, a star
// select charges the whole table (nil Cols), and an unresolvable statement
// reports whole-table inputs — over-approximation can only cause a spurious
// re-check, never a wrong skip.
func StmtInputs(st Stmt) []delta.Input {
	acc := newInputAcc()
	switch x := st.(type) {
	case *SelectStmt:
		acc.selectStmt(x)
	case *ExplainStmt:
		acc.selectStmt(x.Query)
	case *CreateStmt:
		if x.As != nil {
			acc.selectStmt(x.As)
		}
	case *InsertStmt:
		// INSERT reads nothing from existing rows; VALUES are literals.
	case *DeleteStmt:
		acc.dml(x.Table, x.Where)
	case *UpdateStmt:
		acc.dml(x.Table, x.Where)
		for _, e := range x.Exprs {
			acc.exprCols(e, map[string]string{x.Table: x.Table}, []string{x.Table})
		}
	}
	return acc.inputs()
}

// QueryInputs parses src (through the expression/statement cache) and
// returns StmtInputs of the first statement.
func QueryInputs(src string) ([]delta.Input, error) {
	st, err := ParseStatement(src)
	if err != nil {
		return nil, fmt.Errorf("sqlmini: inputs of %q: %w", src, err)
	}
	return StmtInputs(st), nil
}

// inputAcc accumulates column references per table. cols[t] == nil means
// the whole table; a non-nil set lists specific columns.
type inputAcc struct {
	tables []string
	cols   map[string]map[string]struct{}
	whole  map[string]bool
}

func newInputAcc() *inputAcc {
	return &inputAcc{cols: make(map[string]map[string]struct{}), whole: make(map[string]bool)}
}

func (a *inputAcc) touchTable(t string) {
	if _, ok := a.cols[t]; !ok {
		a.cols[t] = make(map[string]struct{})
		a.tables = append(a.tables, t)
	}
}

func (a *inputAcc) addCol(t, c string) {
	a.touchTable(t)
	a.cols[t][c] = struct{}{}
}

func (a *inputAcc) addWhole(t string) {
	a.touchTable(t)
	a.whole[t] = true
}

func (a *inputAcc) dml(table string, where Expr) {
	a.touchTable(table)
	if where != nil {
		a.exprCols(where, map[string]string{table: table}, []string{table})
	}
}

func (a *inputAcc) selectStmt(s *SelectStmt) {
	if s == nil {
		return
	}
	// Scope: alias → table name for this branch.
	aliases := make(map[string]string, len(s.From)+len(s.Joins))
	var scope []string
	add := func(r TableRef) {
		aliases[r.Name] = r.Name
		if r.Alias != "" {
			aliases[r.Alias] = r.Name
		}
		scope = append(scope, r.Name)
		a.touchTable(r.Name)
	}
	for _, r := range s.From {
		add(r)
	}
	for _, j := range s.Joins {
		add(j.Ref)
	}
	for _, it := range s.Items {
		if it.Star {
			for _, t := range scope {
				a.addWhole(t)
			}
			continue
		}
		a.exprCols(it.Expr, aliases, scope)
	}
	for _, j := range s.Joins {
		a.exprCols(j.On, aliases, scope)
	}
	a.exprCols(s.Where, aliases, scope)
	for _, e := range s.GroupBy {
		a.exprCols(e, aliases, scope)
	}
	a.exprCols(s.Having, aliases, scope)
	for _, k := range s.OrderBy {
		a.exprCols(k.Expr, aliases, scope)
	}
	a.selectStmt(s.Union)
}

// exprCols charges every column reference in e to its table: qualified
// columns via the alias scope, unqualified ones to the single table in
// scope or — conservatively — to all of them.
func (a *inputAcc) exprCols(e Expr, aliases map[string]string, scope []string) {
	walk(e, func(n Expr) bool {
		c, ok := colOf(n)
		switch {
		case !ok:
		case c.Qualifier != "":
			if t, ok := aliases[c.Qualifier]; ok {
				a.addCol(t, c.Name)
			} else {
				// Unknown qualifier: treat it as a table name outright.
				a.addCol(c.Qualifier, c.Name)
			}
		case len(scope) == 1:
			a.addCol(scope[0], c.Name)
		default:
			for _, t := range scope {
				a.addCol(t, c.Name)
			}
		}
		return true
	})
}

// inputs renders the accumulator as a sorted delta.Input list.
func (a *inputAcc) inputs() []delta.Input {
	out := make([]delta.Input, 0, len(a.tables))
	tabs := append([]string(nil), a.tables...)
	sort.Strings(tabs)
	for _, t := range tabs {
		if a.whole[t] {
			out = append(out, delta.Input{Table: t})
			continue
		}
		cols := make([]string, 0, len(a.cols[t]))
		for c := range a.cols[t] {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		if len(cols) == 0 {
			// Referenced in FROM but no column pinned (e.g. COUNT(*)):
			// depend on the whole table.
			out = append(out, delta.Input{Table: t})
			continue
		}
		out = append(out, delta.Input{Table: t, Cols: cols})
	}
	return out
}
