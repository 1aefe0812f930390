package sqlmini

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"coherdb/internal/pool"
	"coherdb/internal/rel"
)

// The statement-level differential check: random SELECTs over small
// NULL-heavy tables, each run by the engine four ways in both NULL
// dialects and compared with a naive oracle — nested loops over decoded
// rows, every expression through the tree-walking interpreter, and every
// name checked against its scope before any row is read — and random
// INSERT, UPDATE and DELETE statements over the same tables, each run on
// the DB and in a session overlay in both dialects and compared, table
// row by table row, with a row-at-a-time oracle.

// oracleSchemas are the tables the generator queries: column a is shared
// by t1 and t2 and column b by t1 and t3, so unqualified references can
// be ambiguous, and equality joins have keys to meet on.
var oracleSchemas = []struct {
	name string
	cols []string
}{
	{"t1", []string{"a", "b", "c"}},
	{"t2", []string{"a", "d"}},
	{"t3", []string{"b", "e"}},
}

// oracleValues is the cell universe: NULL, strings and small ints.
var oracleValues = []rel.Value{rel.S("x"), rel.S("y"), rel.S("z"), rel.I(1), rel.I(2), rel.I(3)}

// oracleLits renders the literals the generator draws.
var oracleLits = []string{"'x'", "'y'", "'z'", "1", "2", "3"}

// oracleDB loads seeded tables — 3 to 14 rows, a third of the cells NULL,
// now and then an empty table — into a fresh DB.
func oracleDB(t testing.TB, rng *rand.Rand) *DB {
	t.Helper()
	db := NewDB()
	for _, s := range oracleSchemas {
		tab := rel.MustNewTable(s.name, s.cols...)
		n := 3 + rng.Intn(12)
		if rng.Intn(10) == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			row := make([]rel.Value, len(s.cols))
			for j := range row {
				if rng.Intn(3) != 0 {
					row[j] = oracleValues[rng.Intn(len(oracleValues))]
				}
			}
			tab.MustInsert(row...)
		}
		db.PutTable(tab)
	}
	return db
}

// stmtGen draws SELECT, INSERT, UPDATE and DELETE statements over
// oracleSchemas.
type stmtGen struct {
	rng *rand.Rand
}

// genSource is one table source of a generated branch.
type genSource struct {
	table, alias string
	cols         []string
}

func (g *stmtGen) one(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

func (g *stmtGen) lit() string { return oracleLits[g.rng.Intn(len(oracleLits))] }

// col renders a column reference of one of the sources: qualified by its
// alias, unqualified when the name is unique in scope, and now and then
// an unqualified ambiguous name or a column no source has.
func (g *stmtGen) col(scope []genSource) string {
	if len(scope) == 0 {
		return g.lit()
	}
	s := scope[g.rng.Intn(len(scope))]
	c := s.cols[g.rng.Intn(len(s.cols))]
	switch n := g.rng.Intn(300); {
	case n == 0:
		return s.alias + ".ghost"
	case n < 120:
		unique := 0
		for _, o := range scope {
			for _, oc := range o.cols {
				if oc == c {
					unique++
				}
			}
		}
		if unique == 1 || n == 1 {
			return c
		}
	}
	return s.alias + "." + c
}

// pred renders a condition over the scope.
func (g *stmtGen) pred(scope []genSource, depth int) string {
	n := 8
	if depth > 0 {
		n = 16
	}
	switch g.rng.Intn(n) {
	case 0:
		return g.col(scope) + " = " + g.lit()
	case 1:
		return g.col(scope) + " <> " + g.lit()
	case 2:
		return g.col(scope) + g.one(" IS NULL", " IS NOT NULL")
	case 3:
		set := g.lit()
		for k := g.rng.Intn(3); k > 0; k-- {
			set += ", " + g.one(g.lit(), "NULL")
		}
		return g.col(scope) + g.one(" IN (", " NOT IN (") + set + ")"
	case 4:
		return g.col(scope) + g.one(" < ", " <= ", " > ", " >= ") + g.lit()
	case 5:
		return g.col(scope) + g.one(" BETWEEN ", " NOT BETWEEN ") + g.lit() + " AND " + g.lit()
	case 6:
		return g.col(scope) + g.one(" = ", " <> ", " < ") + g.col(scope)
	case 7:
		return g.col(scope) + " = NULL"
	case 8:
		return "NOT (" + g.pred(scope, depth-1) + ")"
	case 9:
		return "(" + g.pred(scope, depth-1) + " OR " + g.pred(scope, depth-1) + ")"
	case 10:
		return "coalesce2(" + g.col(scope) + ", " + g.lit() + ") = " + g.lit()
	case 11:
		return "CASE WHEN " + g.pred(scope, depth-1) + " THEN " + g.col(scope) + " ELSE " + g.lit() + " END = " + g.lit()
	case 12:
		return "(" + g.pred(scope, depth-1) + " ? " + g.col(scope) + " : " + g.lit() + ") = " + g.lit()
	case 13:
		return "(" + g.pred(scope, depth-1) + " ? " + g.pred(scope, depth-1) + " : " + g.pred(scope, depth-1) + ")"
	case 14:
		s := "CASE"
		for k := 1 + g.rng.Intn(2); k > 0; k-- {
			s += " WHEN " + g.pred(scope, depth-1) + " THEN " + g.pred(scope, depth-1)
		}
		if g.rng.Intn(2) == 0 {
			s += " ELSE " + g.pred(scope, depth-1)
		}
		return s + " END"
	default:
		if g.rng.Intn(20) == 0 {
			return "nosuch(" + g.col(scope) + ")"
		}
		return "typename(" + g.col(scope) + ") = " + g.one("'string'", "'int'", "'null'")
	}
}

// value renders a select-list expression over the scope.
func (g *stmtGen) value(scope []genSource) string {
	switch g.rng.Intn(9) {
	case 0:
		return "coalesce2(" + g.col(scope) + ", " + g.lit() + ")"
	case 1:
		return "CASE WHEN " + g.pred(scope, 1) + " THEN " + g.col(scope) + " ELSE " + g.lit() + " END"
	case 2:
		return g.pred(scope, 1)
	case 3:
		return "typename(" + g.col(scope) + ")"
	case 4:
		return g.lit()
	default:
		return g.col(scope)
	}
}

// aggregate renders an aggregate expression over the scope.
func (g *stmtGen) aggregate(scope []genSource) string {
	switch g.rng.Intn(6) {
	case 0, 1:
		return "COUNT(*)"
	case 2:
		return "MIN(" + g.col(scope) + ")"
	case 3:
		return "MAX(" + g.col(scope) + ")"
	case 4:
		return "CASE WHEN COUNT(*) > " + g.one("0", "1", "2") + " THEN 'many' ELSE 'few' END"
	default:
		return "MAX(" + g.col(scope) + ") IS NULL"
	}
}

// sources draws a branch's FROM and JOIN clauses.
func (g *stmtGen) sources() (string, []genSource) {
	n := 1 + g.rng.Intn(3)
	perm := g.rng.Perm(len(oracleSchemas))[:n]
	var scope []genSource
	for k, i := range perm {
		s := oracleSchemas[i]
		alias := string(rune('p' + k))
		if g.rng.Intn(4) == 0 {
			alias = s.name
		}
		scope = append(scope, genSource{table: s.name, alias: alias, cols: s.cols})
	}
	ref := func(s genSource) string {
		if s.alias == s.table {
			return s.table
		}
		return s.table + " " + s.alias
	}
	// The FROM list (a cross product) precedes the JOIN clauses.
	var b strings.Builder
	b.WriteString(" FROM " + ref(scope[0]))
	k := 1
	for ; k < len(scope) && g.rng.Intn(4) == 0; k++ {
		b.WriteString(", " + ref(scope[k]))
	}
	for ; k < len(scope); k++ {
		b.WriteString(" JOIN " + ref(scope[k]) + " ON " + g.on(scope[:k], scope[k]))
	}
	return b.String(), scope
}

// on renders a join condition between the sources so far and the next:
// usually column equalities (a hash or index join), otherwise any
// condition over both sides (a nested loop).
func (g *stmtGen) on(left []genSource, right genSource) string {
	both := append(append([]genSource(nil), left...), right)
	if g.rng.Intn(3) == 0 {
		return g.pred(both, 1)
	}
	l := left[g.rng.Intn(len(left))]
	eq := func() string {
		return l.alias + "." + l.cols[g.rng.Intn(len(l.cols))] + " = " + right.alias + "." + right.cols[g.rng.Intn(len(right.cols))]
	}
	s := eq()
	if g.rng.Intn(4) == 0 {
		s += " AND " + eq()
	}
	return s
}

// where renders a WHERE clause: conjuncts over one source (pushed), over
// every source (a post-join residue), or over none.
func (g *stmtGen) where(scope []genSource) string {
	n := g.rng.Intn(3)
	if n == 0 {
		return ""
	}
	conj := make([]string, n)
	for i := range conj {
		switch g.rng.Intn(6) {
		case 0:
			conj[i] = g.pred(scope, 2)
		case 1:
			conj[i] = g.pred(nil, 1)
		default:
			conj[i] = g.pred(scope[g.rng.Intn(len(scope)):][:1], 2)
		}
	}
	return " WHERE " + strings.Join(conj, " AND ")
}

// branch renders one SELECT with width output columns (any width when
// width is 0), without ORDER BY and LIMIT, and reports the width it drew
// and the branch's ORDER BY renderer: order(false) sorts the branch alone,
// keyed by its source columns or output names; order(true) sorts a UNION
// chain it heads, keyed by its output names (a source column there is an
// error unless an output shares its name).
func (g *stmtGen) branch(width int) (string, int, func(compound bool) string) {
	from, scope := g.sources()
	var items, group []string
	var having string
	grouped := g.rng.Intn(3) == 0
	if grouped {
		for k := g.rng.Intn(3); k > 0; k-- {
			group = append(group, g.col(scope))
		}
		if g.rng.Intn(2) == 0 {
			having = " HAVING " + g.one(
				"COUNT(*) > "+g.one("0", "1", "2"),
				"MIN("+g.col(scope)+") IS NOT NULL",
				"MAX("+g.col(scope)+") = "+g.lit(),
				g.pred(scope, 1))
		}
	}
	if width == 0 {
		width = 1 + g.rng.Intn(3)
		if !grouped && g.rng.Intn(8) == 0 {
			items, width = []string{"*"}, 0
		}
	}
	var names []string // output names an ORDER BY key may use
	for i := 0; i < width; i++ {
		var e string
		switch {
		case grouped && i < len(group) && g.rng.Intn(3) != 0:
			e = group[i]
		case grouped && g.rng.Intn(3) != 0:
			e = g.aggregate(scope)
		default:
			e = g.value(scope)
		}
		if g.rng.Intn(2) == 0 {
			alias := fmt.Sprintf("o%d", i)
			e += " AS " + alias
			names = append(names, alias)
		} else if !strings.ContainsAny(e, " ('") && (e[0] < '0' || e[0] > '9') {
			names = append(names, e[strings.LastIndex(e, ".")+1:]) // a column's own name
		}
		items = append(items, e)
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	if g.rng.Intn(4) == 0 {
		b.WriteString("DISTINCT ")
	}
	b.WriteString(strings.Join(items, ", "))
	b.WriteString(from)
	b.WriteString(g.where(scope))
	if len(group) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(group, ", "))
	}
	b.WriteString(having)
	order := func(compound bool) string {
		var keys []string
		for k := 1 + g.rng.Intn(2); k > 0; k-- {
			// A grouped branch and a UNION chain sort by output columns
			// only; a source column there is an error.
			key := g.col(scope)
			if len(names) > 0 && (g.rng.Intn(2) == 0 || ((grouped || compound) && g.rng.Intn(8) != 0)) {
				key = names[g.rng.Intn(len(names))]
			}
			keys = append(keys, key+g.one("", " DESC", " ASC"))
		}
		clause := " ORDER BY " + strings.Join(keys, ", ")
		if g.rng.Intn(3) == 0 {
			clause += fmt.Sprintf(" LIMIT %d", g.rng.Intn(5))
		}
		return clause
	}
	return b.String(), width, order
}

// statement renders a SELECT, now and then a UNION [ALL] chain of
// branches of equal width; either may end in ORDER BY and LIMIT.
func (g *stmtGen) statement() string {
	sql, width, order := g.branch(0)
	if width == 0 || g.rng.Intn(5) != 0 {
		if g.rng.Intn(3) == 0 {
			sql += order(false)
		}
		return sql
	}
	for k := 1 + g.rng.Intn(2); k > 0; k-- {
		next, _, _ := g.branch(width)
		sql += g.one(" UNION ", " UNION ALL ") + next
	}
	if g.rng.Intn(2) == 0 {
		sql += order(true)
	}
	return sql
}

// dml draws an INSERT, UPDATE or DELETE over one of oracleSchemas and
// returns it with the table it writes. Now and then a statement names a
// column its table lacks, gives a VALUES row the wrong width or reads a
// column in VALUES, which has no row to read; each fails the statement.
func (g *stmtGen) dml() (sql, table string) {
	s := oracleSchemas[g.rng.Intn(len(oracleSchemas))]
	scope := []genSource{{table: s.name, alias: s.name, cols: s.cols}}
	switch g.rng.Intn(3) {
	case 0:
		cols, list := s.cols, ""
		if g.rng.Intn(2) == 0 {
			cols = nil
			for _, i := range g.rng.Perm(len(s.cols))[:1+g.rng.Intn(len(s.cols))] {
				cols = append(cols, s.cols[i])
			}
			if g.rng.Intn(40) == 0 {
				cols = append(cols, "ghost")
			}
			list = " (" + strings.Join(cols, ", ") + ")"
		}
		var rows []string
		for k := 1 + g.rng.Intn(3); k > 0; k-- {
			vals := make([]string, len(cols))
			if g.rng.Intn(40) == 0 {
				vals = append(vals, g.lit())
			}
			for i := range vals {
				switch g.rng.Intn(12) {
				case 0:
					vals[i] = "NULL"
				case 1:
					vals[i] = g.col(scope)
				default:
					vals[i] = g.value(nil)
				}
			}
			rows = append(rows, "("+strings.Join(vals, ", ")+")")
		}
		return "INSERT INTO " + s.name + list + " VALUES " + strings.Join(rows, ", "), s.name
	case 1:
		var sets []string
		for k := 1 + g.rng.Intn(2); k > 0; k-- {
			c := s.cols[g.rng.Intn(len(s.cols))]
			if g.rng.Intn(40) == 0 {
				c = "ghost"
			}
			sets = append(sets, c+" = "+g.value(scope))
		}
		return "UPDATE " + s.name + " SET " + strings.Join(sets, ", ") + g.where(scope), s.name
	}
	return "DELETE FROM " + s.name + g.where(scope), s.name
}

// oracleResult is a statement's outcome: its column names and rows, or
// the error that failed it.
type oracleResult struct {
	cols []string
	rows [][]rel.Value
	err  error
}

// render prints the result, sorting the rows unless ordered.
func (r oracleResult) render(ordered bool) string {
	if r.err != nil {
		return "error"
	}
	lines := make([]string, len(r.rows))
	for i, row := range r.rows {
		vals := make([]string, len(row))
		for j, v := range row {
			vals[j] = v.Quoted()
		}
		lines[i] = strings.Join(vals, ", ")
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(r.cols, ", ") + "\n" + strings.Join(lines, "\n")
}

func tableResult(t *rel.Table, err error) oracleResult {
	if err != nil {
		return oracleResult{err: err}
	}
	out := oracleResult{cols: t.Columns()}
	for i := 0; i < t.NumRows(); i++ {
		row := make([]rel.Value, t.NumCols())
		for j := range row {
			row[j] = t.At(i, j)
		}
		out.rows = append(out.rows, row)
	}
	return out
}

// naiveSelect is the oracle: it runs a parsed SELECT by definition.
type naiveSelect struct {
	ev     *Evaluator
	tables map[string]*rel.Table
}

// oscope is the row layout of a branch: one alias and name per column.
type oscope struct{ aliases, names []string }

// resolve finds a (possibly qualified) name, -1 when absent or ambiguous.
func (s oscope) resolve(q, name string) int {
	found := -1
	for i, n := range s.names {
		if n != name || (q != "" && s.aliases[i] != q) {
			continue
		}
		if q != "" {
			return i
		}
		if found >= 0 {
			return -1
		}
		found = i
	}
	return found
}

// oenv is the interpreter's view of one row: the scope's columns, then,
// for unqualified names the scope does not resolve, the output columns.
type oenv struct {
	sc       oscope
	row      []rel.Value
	outNames []string
	outVals  []rel.Value
}

func (e oenv) Lookup(q, name string) (rel.Value, bool) {
	if i := e.sc.resolve(q, name); i >= 0 {
		return e.row[i], true
	}
	if q == "" {
		for i, n := range e.outNames {
			if n == name {
				return e.outVals[i], true
			}
		}
	}
	return rel.Null(), false
}

func isAggName(name string) bool {
	return name == "count_star" || name == "agg_min" || name == "agg_max"
}

// kids lists e's direct subexpressions.
func kids(e Expr) []Expr {
	switch x := e.(type) {
	case Call:
		return x.Args
	case Unary:
		return []Expr{x.X}
	case Binary:
		return []Expr{x.L, x.R}
	case InList:
		return append([]Expr{x.X}, x.Set...)
	case IsNull:
		return []Expr{x.X}
	case Between:
		return []Expr{x.X, x.Lo, x.Hi}
	case Ternary:
		return []Expr{x.Cond, x.Then, x.Else}
	case Case:
		var out []Expr
		for _, w := range x.Whens {
			out = append(out, w.Cond, w.Val)
		}
		if x.Else != nil {
			out = append(out, x.Else)
		}
		return out
	}
	return nil
}

// checkNames reports the first column or function of e that does not
// resolve: columns in sc, or unqualified among out; functions among the
// registered ones; aggregate calls only where aggs allows, their argument
// then checked in sc alone.
func (o *naiveSelect) checkNames(e Expr, sc oscope, out []string, aggs bool) error {
	switch x := e.(type) {
	case nil:
		return nil
	case Col:
		if sc.resolve(x.Qualifier, x.Name) >= 0 {
			return nil
		}
		for _, n := range out {
			if x.Qualifier == "" && n == x.Name {
				return nil
			}
		}
		return fmt.Errorf("%w: %s", ErrUnknownColumn, x)
	case Call:
		if aggs && isAggName(x.Name) {
			for _, a := range x.Args {
				if err := o.checkNames(a, sc, nil, false); err != nil {
					return err
				}
			}
			return nil
		}
		if _, ok := o.ev.Funcs[x.Name]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownFunc, x.Name)
		}
	}
	for _, k := range kids(e) {
		if err := o.checkNames(k, sc, out, aggs); err != nil {
			return err
		}
	}
	return nil
}

// hasAggCall reports whether e calls an aggregate anywhere.
func hasAggCall(e Expr) bool {
	if c, ok := e.(Call); ok && isAggName(c.Name) {
		return true
	}
	for _, k := range kids(e) {
		if hasAggCall(k) {
			return true
		}
	}
	return false
}

// substAggs replaces every aggregate call in e by the literal it computes
// over the group's rows.
func (o *naiveSelect) substAggs(e Expr, sc oscope, rows [][]rel.Value) (Expr, error) {
	sub := func(e Expr) (Expr, error) { return o.substAggs(e, sc, rows) }
	list := func(es []Expr) ([]Expr, error) {
		out := make([]Expr, len(es))
		for i, e := range es {
			var err error
			if out[i], err = sub(e); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	switch x := e.(type) {
	case Call:
		if !isAggName(x.Name) {
			args, err := list(x.Args)
			return Call{Name: x.Name, Args: args}, err
		}
		if x.Name == "count_star" {
			return Lit{Val: rel.I(int64(len(rows)))}, nil
		}
		best := rel.Null()
		for _, row := range rows {
			v, err := o.ev.Eval(x.Args[0], oenv{sc: sc, row: row})
			if err != nil {
				return nil, err
			}
			if !v.IsNull() && (best.IsNull() ||
				(x.Name == "agg_min" && v.Compare(best) < 0) ||
				(x.Name == "agg_max" && v.Compare(best) > 0)) {
				best = v
			}
		}
		return Lit{Val: best}, nil
	case Unary:
		r, err := sub(x.X)
		return Unary{Op: x.Op, X: r}, err
	case Binary:
		l, err := sub(x.L)
		if err != nil {
			return nil, err
		}
		r, err := sub(x.R)
		return Binary{Op: x.Op, L: l, R: r}, err
	case InList:
		xs, err := list(append([]Expr{x.X}, x.Set...))
		if err != nil {
			return nil, err
		}
		return InList{X: xs[0], Set: xs[1:], Negate: x.Negate}, nil
	case IsNull:
		r, err := sub(x.X)
		return IsNull{X: r, Negate: x.Negate}, err
	case Between:
		xs, err := list([]Expr{x.X, x.Lo, x.Hi})
		if err != nil {
			return nil, err
		}
		return Between{X: xs[0], Lo: xs[1], Hi: xs[2], Negate: x.Negate}, nil
	case Ternary:
		xs, err := list([]Expr{x.Cond, x.Then, x.Else})
		if err != nil {
			return nil, err
		}
		return Ternary{Cond: xs[0], Then: xs[1], Else: xs[2]}, nil
	case Case:
		out := Case{}
		for _, w := range x.Whens {
			c, err := sub(w.Cond)
			if err != nil {
				return nil, err
			}
			v, err := sub(w.Val)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, When{Cond: c, Val: v})
		}
		if x.Else != nil {
			var err error
			if out.Else, err = sub(x.Else); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return e, nil
}

// codeKey is an injective key of a value row.
func codeKey(row []rel.Value) string {
	var buf []byte
	for _, v := range row {
		buf = rel.AppendCodeKey(buf, dict.Code(v))
	}
	return string(buf)
}

// run executes a SELECT and its UNION chain, whose ORDER BY and LIMIT
// apply to the chain's output.
func (o *naiveSelect) run(s *SelectStmt) oracleResult {
	if s.Union == nil {
		if err := o.checkBranch(s); err != nil {
			return oracleResult{err: err}
		}
		return o.branch(s)
	}
	head := *s
	head.OrderBy, head.Limit = nil, -1
	// Every branch's names resolve, and then the chain's ORDER BY among
	// the first branch's output names, before any branch runs.
	for b := &head; b != nil; b = b.Union {
		if err := o.checkBranch(b); err != nil {
			return oracleResult{err: err}
		}
	}
	sc, _, _ := o.layout(&head)
	cols, _, _ := o.output(&head, sc)
	for _, k := range s.OrderBy {
		if err := o.checkNames(k.Expr, oscope{}, cols, false); err != nil {
			return oracleResult{err: err}
		}
	}
	res := o.branch(&head)
	for u, all := s.Union, s.UnionAll; u != nil && res.err == nil; u, all = u.Union, u.UnionAll {
		br := *u
		br.Union = nil
		next := o.branch(&br)
		if next.err != nil {
			return next
		}
		if len(next.cols) != len(res.cols) {
			return oracleResult{err: rel.ErrSchema}
		}
		res.rows = append(res.rows, next.rows...)
		if !all {
			res.rows = distinctRows(res.rows)
		}
	}
	if res.err != nil {
		return res
	}
	keys := make([][]rel.Value, len(res.rows))
	for i, row := range res.rows {
		for _, k := range s.OrderBy {
			v, err := o.ev.Eval(k.Expr, oenv{outNames: res.cols, outVals: row})
			if err != nil {
				return oracleResult{err: err}
			}
			keys[i] = append(keys[i], v)
		}
	}
	order := make([]int, len(res.rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		for i, k := range s.OrderBy {
			c := keys[order[a]][i].Compare(keys[order[b]][i])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	if s.Limit >= 0 && len(order) > s.Limit {
		order = order[:s.Limit]
	}
	sorted := make([][]rel.Value, len(order))
	for i, j := range order {
		sorted[i] = res.rows[j]
	}
	res.rows = sorted
	return res
}

func distinctRows(rows [][]rel.Value) [][]rel.Value {
	seen := map[string]bool{}
	var out [][]rel.Value
	for _, r := range rows {
		if k := codeKey(r); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// layout returns a branch's sources as scopes: the whole FROM/JOIN row,
// and per JOIN the row its ON reads.
func (o *naiveSelect) layout(s *SelectStmt) (oscope, []oscope, error) {
	var sc oscope
	var ons []oscope
	add := func(ref TableRef) error {
		t, ok := o.tables[ref.Name]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoTable, ref.Name)
		}
		alias := ref.Alias
		if alias == "" {
			alias = ref.Name
		}
		for _, c := range t.Columns() {
			sc.aliases = append(sc.aliases, alias)
			sc.names = append(sc.names, c)
		}
		return nil
	}
	for _, ref := range s.From {
		if err := add(ref); err != nil {
			return sc, nil, err
		}
	}
	for _, j := range s.Joins {
		if err := add(j.Ref); err != nil {
			return sc, nil, err
		}
		ons = append(ons, oscope{aliases: append([]string(nil), sc.aliases...), names: append([]string(nil), sc.names...)})
	}
	return sc, ons, nil
}

// output returns a branch's output column names and expressions, and
// whether it aggregates.
func (o *naiveSelect) output(s *SelectStmt, sc oscope) ([]string, []Expr, bool) {
	var cols []string
	var exprs []Expr
	grouped := len(s.GroupBy) > 0 || s.Having != nil
	for _, it := range s.Items {
		if it.Star {
			for i, n := range sc.names {
				name := n
				if sc.resolve("", n) < 0 {
					name = sc.aliases[i] + "." + n
				}
				cols = append(cols, name)
				exprs = append(exprs, Col{Qualifier: sc.aliases[i], Name: n})
			}
			continue
		}
		name := it.Alias
		if c, ok := it.Expr.(Col); ok && name == "" {
			name = c.Name
		} else if name == "" {
			name = it.Expr.String()
			if c, ok := it.Expr.(Call); ok && c.Name == "count_star" && len(s.Items) == 1 && len(s.GroupBy) == 0 {
				name = "count"
			}
		}
		cols = append(cols, name)
		exprs = append(exprs, it.Expr)
		grouped = grouped || hasAggCall(it.Expr)
	}
	seen := map[string]int{}
	for i, c := range cols {
		if n := seen[c]; n > 0 {
			cols[i] = fmt.Sprintf("%s_%d", c, n)
		}
		seen[c]++
	}
	return cols, exprs, grouped
}

// checkBranch checks every name of a branch in its scope.
func (o *naiveSelect) checkBranch(s *SelectStmt) error {
	sc, ons, err := o.layout(s)
	if err != nil {
		return err
	}
	for i, j := range s.Joins {
		if err := o.checkNames(j.On, ons[i], nil, false); err != nil {
			return err
		}
	}
	if err := o.checkNames(s.Where, sc, nil, false); err != nil {
		return err
	}
	cols, exprs, grouped := o.output(s, sc)
	for _, g := range s.GroupBy {
		if err := o.checkNames(g, sc, nil, false); err != nil {
			return err
		}
	}
	if err := o.checkNames(s.Having, sc, nil, true); err != nil {
		return err
	}
	for _, e := range exprs {
		if err := o.checkNames(e, sc, nil, grouped); err != nil {
			return err
		}
	}
	keyScope := sc
	if grouped {
		keyScope = oscope{}
	}
	for _, k := range s.OrderBy {
		if err := o.checkNames(k.Expr, keyScope, cols, false); err != nil {
			return err
		}
	}
	return nil
}

// branch runs one SELECT branch whose names checkBranch accepted.
func (o *naiveSelect) branch(s *SelectStmt) oracleResult {
	sc, ons, _ := o.layout(s)
	decode := func(name string) [][]rel.Value {
		t := o.tables[name]
		rows := make([][]rel.Value, t.NumRows())
		for i := range rows {
			rows[i] = make([]rel.Value, t.NumCols())
			for j := range rows[i] {
				rows[i][j] = t.At(i, j)
			}
		}
		return rows
	}
	join := func(left, right [][]rel.Value, on Expr, onScope oscope) ([][]rel.Value, error) {
		var out [][]rel.Value
		for _, l := range left {
			for _, r := range right {
				row := append(append([]rel.Value(nil), l...), r...)
				if on != nil {
					ok, err := o.ev.True(on, oenv{sc: onScope, row: row})
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
				}
				out = append(out, row)
			}
		}
		return out, nil
	}
	rows := [][]rel.Value{{}}
	var err error
	for _, ref := range s.From {
		if rows, err = join(rows, decode(ref.Name), nil, oscope{}); err != nil {
			return oracleResult{err: err}
		}
	}
	for i, j := range s.Joins {
		if rows, err = join(rows, decode(j.Ref.Name), j.On, ons[i]); err != nil {
			return oracleResult{err: err}
		}
	}
	if s.Where != nil {
		var kept [][]rel.Value
		for _, row := range rows {
			ok, err := o.ev.True(s.Where, oenv{sc: sc, row: row})
			if err != nil {
				return oracleResult{err: err}
			}
			if ok {
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	cols, exprs, grouped := o.output(s, sc)
	type outRow struct{ vals, keys []rel.Value }
	var out []outRow
	// emit evaluates the select list in env, then the ORDER BY keys in
	// keyEnv extended by the output columns.
	emit := func(exprs []Expr, env oenv, keyEnv oenv) error {
		vals := make([]rel.Value, len(exprs))
		for i, e := range exprs {
			v, err := o.ev.Eval(e, env)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		keyEnv.outNames, keyEnv.outVals = cols, vals
		keys := make([]rel.Value, len(s.OrderBy))
		for i, k := range s.OrderBy {
			v, err := o.ev.Eval(k.Expr, keyEnv)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		out = append(out, outRow{vals: vals, keys: keys})
		return nil
	}
	if !grouped {
		for _, row := range rows {
			env := oenv{sc: sc, row: row}
			if err := emit(exprs, env, env); err != nil {
				return oracleResult{err: err}
			}
		}
	} else {
		var order []string
		groups := map[string][][]rel.Value{}
		for _, row := range rows {
			key := make([]rel.Value, len(s.GroupBy))
			for i, g := range s.GroupBy {
				if key[i], err = o.ev.Eval(g, oenv{sc: sc, row: row}); err != nil {
					return oracleResult{err: err}
				}
			}
			k := codeKey(key)
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], row)
		}
		if len(s.GroupBy) == 0 && len(order) == 0 {
			order = append(order, "")
		}
		for _, k := range order {
			g := groups[k]
			first := make([]rel.Value, len(sc.names))
			if len(g) > 0 {
				first = g[0]
			}
			env := oenv{sc: sc, row: first}
			if s.Having != nil {
				h, err := o.substAggs(s.Having, sc, g)
				if err != nil {
					return oracleResult{err: err}
				}
				if ok, err := o.ev.True(h, env); err != nil {
					return oracleResult{err: err}
				} else if !ok {
					continue
				}
			}
			items := make([]Expr, len(exprs))
			for i, e := range exprs {
				if items[i], err = o.substAggs(e, sc, g); err != nil {
					return oracleResult{err: err}
				}
			}
			if err := emit(items, env, oenv{}); err != nil {
				return oracleResult{err: err}
			}
		}
	}
	if s.Distinct {
		seen := map[string]bool{}
		kept := out[:0]
		for _, r := range out {
			if k := codeKey(r.vals); !seen[k] {
				seen[k] = true
				kept = append(kept, r)
			}
		}
		out = kept
	}
	sort.SliceStable(out, func(a, b int) bool {
		for i, k := range s.OrderBy {
			c := out[a].keys[i].Compare(out[b].keys[i])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	if s.Limit >= 0 && len(out) > s.Limit {
		out = out[:s.Limit]
	}
	res := oracleResult{cols: cols}
	for _, r := range out {
		res.rows = append(res.rows, r.vals)
	}
	return res
}

var (
	oraclePoolOnce sync.Once
	oraclePool     *pool.Pool
)

// oracleDML runs an INSERT, UPDATE or DELETE on t by definition and
// returns the number of rows it affected. Every name is checked against t
// before any row is read; INSERT then evaluates every VALUES row before it
// appends them, and UPDATE and DELETE run TestDMLMatchesRowOracle's
// row-at-a-time loops. On an error t may be partly written.
func oracleDML(ev *Evaluator, t *rel.Table, stmt Stmt) (int, error) {
	o := &naiveSelect{ev: ev}
	sc := oscope{names: t.Columns()}
	for range sc.names {
		sc.aliases = append(sc.aliases, t.Name())
	}
	known := func(cols []string) error {
		for _, c := range cols {
			if !t.HasColumn(c) {
				return fmt.Errorf("%w: %s", ErrUnknownColumn, c)
			}
		}
		return nil
	}
	switch s := stmt.(type) {
	case *InsertStmt:
		cols := s.Cols
		if cols == nil {
			cols = t.Columns()
		}
		if err := known(cols); err != nil {
			return 0, err
		}
		var rows [][]rel.Value
		for _, exprs := range s.Rows {
			if len(exprs) != len(cols) {
				return 0, rel.ErrArity
			}
			row := make([]rel.Value, t.NumCols())
			for j := range row {
				row[j] = rel.Null()
			}
			for i, e := range exprs {
				if err := o.checkNames(e, oscope{}, nil, false); err != nil {
					return 0, err
				}
				v, err := ev.Eval(e, oenv{})
				if err != nil {
					return 0, err
				}
				row[t.ColIndex(cols[i])] = v
			}
			rows = append(rows, row)
		}
		for _, row := range rows {
			if err := t.InsertRow(row); err != nil {
				return 0, err
			}
		}
		return len(rows), nil
	case *UpdateStmt:
		if err := known(s.Cols); err != nil {
			return 0, err
		}
		for _, e := range append([]Expr{s.Where}, s.Exprs...) {
			if err := o.checkNames(e, sc, nil, false); err != nil {
				return 0, err
			}
		}
		sel, err := rowOracleUpdate(ev, t, s)
		return len(sel), err
	case *DeleteStmt:
		if err := o.checkNames(s.Where, sc, nil, false); err != nil {
			return 0, err
		}
		sel, err := rowOracleDelete(ev, t, s)
		return len(sel), err
	}
	panic(fmt.Sprintf("oracleDML: %T", stmt))
}

// checkDMLMatchesOracle runs n generated INSERT, UPDATE and DELETE
// statements, each on fresh copies of one seeded DB's tables, in both NULL
// dialects, on the DB and in a session whose overlay shadows the table
// written, and compares each with oracleDML: the error or success,
// Affected, and the written table in row order. It returns how many
// statements of each kind (INSERT, UPDATE, DELETE) succeeded.
func checkDMLMatchesOracle(t *testing.T, seed int64, n int) (ok [3]int) {
	rng := rand.New(rand.NewSource(seed))
	base := oracleDB(t, rng)
	g := &stmtGen{rng: rng}
	for i := 0; i < n; i++ {
		sql, target := g.dml()
		stmt, err := ParseStatement(sql)
		if err != nil {
			t.Fatalf("seed %d: generated %q does not parse: %v", seed, sql, err)
		}
		for _, strict := range []bool{false, true} {
			want := base.MustTable(target).Clone()
			affected, wantErr := oracleDML(&Evaluator{Funcs: base.eval.Funcs, NullEq: !strict}, want, stmt)
			for _, session := range []bool{false, true} {
				res, got, err := execDML(t, base, strict, session, target, sql)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("seed %d statement %d (strict=%v, session=%v): %s\nerr %v, oracle %v", seed, i, strict, session, sql, err, wantErr)
				}
				if err != nil {
					continue
				}
				if res.Affected != affected || tableDigest(got) != tableDigest(want) {
					t.Fatalf("seed %d statement %d (strict=%v, session=%v): %s\nAffected %d, table\n%v\noracle: Affected %d, table\n%v",
						seed, i, strict, session, sql, res.Affected, got, affected, want)
				}
			}
			if wantErr == nil {
				switch stmt.(type) {
				case *InsertStmt:
					ok[0]++
				case *UpdateStmt:
					ok[1]++
				default:
					ok[2]++
				}
			}
		}
	}
	return ok
}

// execDML runs a DML statement on a fresh DB holding copies of base's
// tables, or in a session of it whose overlay shadows table, and returns
// the result and table as the statement left it.
func execDML(t *testing.T, base *DB, strict, session bool, table, sql string) (*Result, *rel.Table, error) {
	db := NewDB()
	for _, s := range oracleSchemas {
		db.PutTable(base.MustTable(s.name).Clone())
	}
	db.SetStrictNulls(strict)
	var x execer = db
	if session {
		sess := db.NewSession()
		defer sess.Close()
		if _, err := sess.Exec("CREATE TABLE " + table + " AS SELECT * FROM " + table); err != nil {
			t.Fatal(err)
		}
		x = sess
	}
	res, err := x.Exec(sql)
	got, _ := x.Table(table)
	return res, got, err
}

// checkStatementsMatchOracle runs n generated statements over one seeded
// DB four ways in both NULL dialects — serially, on a forced 4-worker
// pool with 4-row morsels, through Prepare, and in a Session whose
// overlay shadows t1 with an identical copy — and compares each result,
// success or failure, with the oracle's: as multisets, or in order when
// the statement's ORDER BY fixes it.
// It returns the morsels the parallel runs dealt and the statements that
// sorted or limited a UNION chain without error.
func checkStatementsMatchOracle(t *testing.T, seed int64, n int) (morsels, sortedUnions int64) {
	oraclePoolOnce.Do(func() { oraclePool = pool.New(4) })
	rng := rand.New(rand.NewSource(seed))
	db := oracleDB(t, rng)
	sess := db.NewSession()
	defer sess.Close()
	if _, err := sess.Exec(`CREATE TABLE t1 AS SELECT * FROM t1`); err != nil {
		t.Fatal(err)
	}
	tables := map[string]*rel.Table{}
	for _, s := range oracleSchemas {
		tables[s.name] = db.MustTable(s.name)
	}
	g := &stmtGen{rng: rng}
	for i := 0; i < n; i++ {
		sql := g.statement()
		st, err := ParseStatement(sql)
		if err != nil {
			t.Fatalf("seed %d: generated %q does not parse: %v", seed, sql, err)
		}
		sel := st.(*SelectStmt)
		ordered := len(sel.OrderBy) > 0
		for _, strict := range []bool{false, true} {
			oracle := &naiveSelect{ev: &Evaluator{Funcs: db.eval.Funcs, NullEq: !strict}, tables: tables}
			res := oracle.run(sel)
			if !strict && res.err == nil && sel.Union != nil && (ordered || sel.Limit >= 0) {
				sortedUnions++
			}
			want := res.render(ordered)
			db.SetStrictNulls(strict)
			db.SetPool(nil)
			db.SetWorkers(1)
			db.SetMorselSize(0)
			serial := tableResult(db.Query(sql))
			db.SetPool(oraclePool)
			db.SetWorkers(4)
			db.SetMorselSize(4)
			parallel := tableResult(db.Query(sql))
			var prepared oracleResult
			if p, err := db.Prepare(sql); err != nil {
				prepared = oracleResult{err: err}
			} else {
				res, _, err := p.ExecStatsDialect(strict)
				if err == nil {
					prepared = tableResult(res.Table, nil)
				} else {
					prepared = oracleResult{err: err}
				}
			}
			session := tableResult(sess.Query(sql))
			for _, got := range []struct {
				way string
				res oracleResult
			}{{"serial", serial}, {"parallel", parallel}, {"prepared", prepared}, {"session", session}} {
				if have := got.res.render(ordered); have != want {
					t.Fatalf("seed %d statement %d (strict=%v, %s): %s\nengine (err %v):\n%s\noracle:\n%s",
						seed, i, strict, got.way, sql, got.res.err, have, want)
				}
			}
		}
	}
	return db.Stats().Morsels, sortedUnions
}

// TestStatementsMatchOracle is the seeded tier-1 run of the statement-level
// differential check.
func TestStatementsMatchOracle(t *testing.T) {
	seeds, n := int64(24), 40
	if testing.Short() || raceEnabled {
		seeds = 6
	}
	var morsels, sortedUnions int64
	var dmlOK [3]int
	for seed := int64(0); seed < seeds; seed++ {
		m, u := checkStatementsMatchOracle(t, seed, n)
		morsels, sortedUnions = morsels+m, sortedUnions+u
		for k, c := range checkDMLMatchesOracle(t, seed, n) {
			dmlOK[k] += c
		}
	}
	for k, kind := range []string{"INSERT", "UPDATE", "DELETE"} {
		if dmlOK[k] == 0 {
			t.Errorf("no generated %s succeeded", kind)
		}
	}
	t.Logf("%d INSERT, %d UPDATE and %d DELETE runs succeeded", dmlOK[0], dmlOK[1], dmlOK[2])
	if morsels == 0 {
		t.Fatal("no statement took the parallel path: the parallel runs were vacuous")
	}
	if sortedUnions == 0 {
		t.Fatal("no statement sorted or limited a UNION chain without error")
	}
	t.Logf("%d statements sorted or limited a UNION chain", sortedUnions)
}

// FuzzStatementsMatchOracle runs the statement-level differential check
// from arbitrary seeds; run it longer with
// go test -run '^$' -fuzz '^FuzzStatementsMatchOracle$' -fuzztime 30s ./internal/sqlmini/
func FuzzStatementsMatchOracle(f *testing.F) {
	for seed := int64(100); seed < 104; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkStatementsMatchOracle(t, seed, 10)
		checkDMLMatchesOracle(t, seed, 10)
	})
}
