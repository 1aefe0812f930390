package sqlmini

import (
	"strings"

	"coherdb/internal/rel"
)

// Expr is a SQL expression node.
type Expr interface {
	// String renders the expression back to dialect syntax.
	String() string
	exprNode()
}

// Lit is a literal value (string, number, TRUE/FALSE, NULL).
type Lit struct {
	Val rel.Value
}

// Col is a column reference, optionally qualified ("D.inmsg").
type Col struct {
	Qualifier string // "" when unqualified
	Name      string
}

// Unary is NOT expr.
type Unary struct {
	Op string // "NOT"
	X  Expr
}

// Binary is a binary operation: comparison, AND, OR.
type Binary struct {
	Op   string // "=", "<>", "<", "<=", ">", ">=", "AND", "OR"
	L, R Expr
}

// InList is "x IN (a, b, c)" or "x NOT IN (...)".
type InList struct {
	X      Expr
	Set    []Expr
	Negate bool
}

// IsNull is "x IS NULL" or "x IS NOT NULL".
type IsNull struct {
	X      Expr
	Negate bool
}

// Between is "x BETWEEN lo AND hi".
type Between struct {
	X, Lo, Hi Expr
	Negate    bool
}

// Ternary is the paper's constraint form "cond ? then : else".
type Ternary struct {
	Cond, Then, Else Expr
}

// Case is "CASE WHEN c THEN v ... [ELSE e] END".
type Case struct {
	Whens []When
	Else  Expr // nil means NULL
}

// When is one WHEN/THEN arm of a Case.
type When struct {
	Cond, Val Expr
}

// Call is a registered function invocation, e.g. isrequest(inmsg).
type Call struct {
	Name string
	Args []Expr
}

func (Lit) exprNode()     {}
func (Col) exprNode()     {}
func (Unary) exprNode()   {}
func (Binary) exprNode()  {}
func (InList) exprNode()  {}
func (IsNull) exprNode()  {}
func (Between) exprNode() {}
func (Ternary) exprNode() {}
func (Case) exprNode()    {}
func (Call) exprNode()    {}

func (e Lit) String() string { return e.Val.Quoted() }

func (e Col) String() string {
	if e.Qualifier != "" {
		return e.Qualifier + "." + e.Name
	}
	return e.Name
}

func (e Unary) String() string   { return render(e) }
func (e Binary) String() string  { return render(e) }
func (e InList) String() string  { return render(e) }
func (e IsNull) String() string  { return render(e) }
func (e Between) String() string { return render(e) }
func (e Ternary) String() string { return render(e) }
func (e Case) String() string    { return render(e) }
func (e Call) String() string    { return render(e) }

// render writes e through one strings.Builder. Concatenating each child's
// own String would copy a subtree once per ancestor, which is quadratic on
// the right-nested rule chains the constraint specs hold.
func render(e Expr) string {
	var sb strings.Builder
	writeExpr(&sb, e)
	return sb.String()
}

// writeExpr appends e's dialect syntax to sb.
func writeExpr(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case Lit:
		sb.WriteString(x.Val.Quoted())
	case Col:
		writeCol(sb, x)
	case boundCol:
		writeCol(sb, x.Col)
	case Unary:
		sb.WriteString("(")
		sb.WriteString(x.Op)
		sb.WriteString(" ")
		writeExpr(sb, x.X)
		sb.WriteString(")")
	case Binary:
		sb.WriteString("(")
		writeExpr(sb, x.L)
		sb.WriteString(" ")
		sb.WriteString(x.Op)
		sb.WriteString(" ")
		writeExpr(sb, x.R)
		sb.WriteString(")")
	case InList:
		sb.WriteString("(")
		writeExpr(sb, x.X)
		if x.Negate {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" IN (")
		writeList(sb, x.Set)
		sb.WriteString("))")
	case IsNull:
		sb.WriteString("(")
		writeExpr(sb, x.X)
		if x.Negate {
			sb.WriteString(" IS NOT NULL)")
		} else {
			sb.WriteString(" IS NULL)")
		}
	case Between:
		sb.WriteString("(")
		writeExpr(sb, x.X)
		if x.Negate {
			sb.WriteString(" NOT BETWEEN ")
		} else {
			sb.WriteString(" BETWEEN ")
		}
		writeExpr(sb, x.Lo)
		sb.WriteString(" AND ")
		writeExpr(sb, x.Hi)
		sb.WriteString(")")
	case Ternary:
		sb.WriteString("(")
		writeExpr(sb, x.Cond)
		sb.WriteString(" ? ")
		writeExpr(sb, x.Then)
		sb.WriteString(" : ")
		writeExpr(sb, x.Else)
		sb.WriteString(")")
	case Case:
		sb.WriteString("CASE")
		for _, w := range x.Whens {
			sb.WriteString(" WHEN ")
			writeExpr(sb, w.Cond)
			sb.WriteString(" THEN ")
			writeExpr(sb, w.Val)
		}
		if x.Else != nil {
			sb.WriteString(" ELSE ")
			writeExpr(sb, x.Else)
		}
		sb.WriteString(" END")
	case Call:
		sb.WriteString(x.Name)
		sb.WriteString("(")
		writeList(sb, x.Args)
		sb.WriteString(")")
	default:
		sb.WriteString(e.String())
	}
}

func writeCol(sb *strings.Builder, c Col) {
	if c.Qualifier != "" {
		sb.WriteString(c.Qualifier)
		sb.WriteString(".")
	}
	sb.WriteString(c.Name)
}

// writeList appends es separated by ", ".
func writeList(sb *strings.Builder, es []Expr) {
	for i, e := range es {
		if i > 0 {
			sb.WriteString(", ")
		}
		writeExpr(sb, e)
	}
}

// Stmt is a SQL statement.
type Stmt interface{ stmtNode() }

// SelectItem is one element of a select list: an expression with an optional
// alias, or a star.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// TableRef is one table in a FROM clause, with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// JoinClause is "JOIN t [alias] ON expr".
type JoinClause struct {
	Ref TableRef
	On  Expr
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT query, possibly with UNION branches chained via
// Union/UnionAll. The OrderBy and Limit of a statement with a Union apply
// to the whole chain; its later branches have none.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Joins    []JoinClause
	Where    Expr
	// GroupBy groups rows by the given expressions; COUNT(*) in the
	// select list then counts per group, and Having filters groups.
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderKey
	Limit    int // -1 means no limit
	Union    *SelectStmt
	UnionAll bool
}

// ExplainStmt is EXPLAIN SELECT ...: it reports the query plan (scans,
// join strategies, estimated row counts) without executing the query.
// With Analyze set (EXPLAIN ANALYZE SELECT ...) the query is executed
// and the plan is annotated with measured per-operator rows, time,
// morsels and steals instead of estimates.
type ExplainStmt struct {
	Query   *SelectStmt
	Analyze bool
}

// CreateStmt is CREATE TABLE name (cols) or CREATE TABLE name AS SELECT.
type CreateStmt struct {
	Name string
	Cols []string
	As   *SelectStmt
}

// DropStmt is DROP TABLE name.
type DropStmt struct {
	Name     string
	IfExists bool
}

// InsertStmt is INSERT INTO name [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]Expr
}

// DeleteStmt is DELETE FROM name [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr
}

// UpdateStmt is UPDATE name SET col = expr, ... [WHERE expr].
type UpdateStmt struct {
	Table string
	Cols  []string
	Exprs []Expr
	Where Expr
}

func (*SelectStmt) stmtNode()  {}
func (*ExplainStmt) stmtNode() {}
func (*CreateStmt) stmtNode()  {}
func (*DropStmt) stmtNode()    {}
func (*InsertStmt) stmtNode()  {}
func (*DeleteStmt) stmtNode()  {}
func (*UpdateStmt) stmtNode()  {}
