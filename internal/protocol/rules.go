package protocol

import (
	"fmt"
	"strings"

	"coherdb/internal/constraint"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// Rule is one controller transition case: when the input condition When
// holds, the output columns take the values in Set (outputs not listed are
// NULL, i.e. noop). Rules are the authoring form; they compile into the
// paper's per-column ternary constraint chains:
//
//	when1 ? col = v1 : when2 ? col = v2 : ... : col = NULL
//
// so the spec handed to the solver is exactly the paper's database input.
// CompileInto builds each chain as an expression tree over the rules'
// parsed conditions rather than as text, so a condition is parsed and
// resolved once per spec however many chains it appears in. A rule's When
// must be written over input columns only; the first matching rule (in
// order) defines every output of a row.
type Rule struct {
	// ID identifies the rule in diagnostics, e.g. "readex@SI".
	ID string
	// When is an input condition in the constraint dialect.
	When string
	// Set maps output columns to their values. The special value "NULL"
	// (or an absent column) means noop.
	Set map[string]string
}

// RuleSet accumulates rules for one controller spec and compiles them.
type RuleSet struct {
	rules []Rule
	ids   map[string]struct{}
}

// NewRuleSet returns an empty rule set.
func NewRuleSet() *RuleSet {
	return &RuleSet{ids: make(map[string]struct{})}
}

// Add appends a rule. Duplicate IDs panic: protocol specs are static and a
// duplicate is an authoring bug.
func (rs *RuleSet) Add(r Rule) {
	if r.ID == "" {
		panic("protocol: rule without ID")
	}
	if _, dup := rs.ids[r.ID]; dup {
		panic(fmt.Sprintf("protocol: duplicate rule ID %q", r.ID))
	}
	rs.ids[r.ID] = struct{}{}
	rs.rules = append(rs.rules, r)
}

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.rules) }

// CompileInto attaches the compiled constraints to spec: one ternary chain
// per output column (over every rule, in priority order), and a legality
// disjunction over all rule conditions attached to legalityCol (pass "" to
// skip the legality constraint when per-column input constraints already
// define legality exactly).
//
// Each rule's When is parsed once (through the shared expression cache)
// and resolved once against spec; the legality disjunction and every chain
// are then assembled as trees sharing those condition nodes, in exactly
// the shape the parser gives the equivalent text: right-nested ternaries,
// left-nested ORs, and `col = "v"` / `col = NULL` comparisons.
func (rs *RuleSet) CompileInto(spec *constraint.Spec, legalityCol string, outputs []string) error {
	conds := make([]sqlmini.Expr, len(rs.rules))
	for i, r := range rs.rules {
		e, err := sqlmini.ParseExprCached(r.When)
		if err != nil {
			return fmt.Errorf("protocol: rule %s: %w", r.ID, err)
		}
		conds[i] = sqlmini.ResolveSymbols(e, spec.HasColumn)
	}
	if legalityCol != "" {
		if len(conds) == 0 {
			return fmt.Errorf("protocol: legality constraint: no rules")
		}
		legal := conds[0]
		for _, c := range conds[1:] {
			legal = sqlmini.Binary{Op: "OR", L: legal, R: c}
		}
		if err := spec.ConstrainExpr(legalityCol, legal); err != nil {
			return fmt.Errorf("protocol: legality constraint: %w", err)
		}
	}
	for _, col := range outputs {
		if err := spec.ConstrainExpr(col, rs.chain(col, conds)); err != nil {
			return fmt.Errorf("protocol: constraint for %s: %w", col, err)
		}
	}
	return nil
}

// chain builds the ternary constraint chain for one output column over
// the rules' resolved conditions. Every rule participates (with NULL when
// it does not set the column) so that rule priority is preserved even for
// overlapping conditions; a column no rule sets is noop everywhere. When
// no rule matches the output must be NULL (such rows are pruned by the
// legality constraint anyway).
func (rs *RuleSet) chain(col string, conds []sqlmini.Expr) sqlmini.Expr {
	target := sqlmini.Col{Name: col}
	sets := make(map[string]sqlmini.Expr) // one `col = v` node per value
	set := func(v string) sqlmini.Expr {
		if e, ok := sets[v]; ok {
			return e
		}
		val := rel.Null()
		if v != "NULL" {
			val = rel.S(v)
		}
		e := sqlmini.Expr(sqlmini.Binary{Op: "=", L: target, R: sqlmini.Lit{Val: val}})
		sets[v] = e
		return e
	}
	noop := set("NULL")
	used := false
	for _, r := range rs.rules {
		if v, ok := r.Set[col]; ok && v != "NULL" {
			used = true
			break
		}
	}
	if !used {
		return noop
	}
	var e sqlmini.Expr = noop
	for i := len(rs.rules) - 1; i >= 0; i-- {
		then := noop
		if v, ok := rs.rules[i].Set[col]; ok {
			then = set(v)
		}
		e = sqlmini.Ternary{Cond: conds[i], Then: then, Else: e}
	}
	return e
}

// quoteVal renders a rule value as a constraint literal. "NULL" stays the
// NULL keyword; everything else becomes a double-quoted symbol so hyphened
// state names parse unambiguously.
func quoteVal(v string) string {
	if v == "NULL" {
		return "NULL"
	}
	return `"` + v + `"`
}

// eq builds the atom `col = "value"` (or `col = NULL`).
func eq(col, val string) string { return col + " = " + quoteVal(val) }

// in builds `col in ("a", "b", ...)`.
func in(col string, vals ...string) string {
	var sb strings.Builder
	sb.WriteString(col)
	sb.WriteString(" in (")
	for i, v := range vals {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(quoteVal(v))
	}
	sb.WriteString(")")
	return sb.String()
}

// all joins conditions with and.
func all(conds ...string) string {
	return "(" + strings.Join(conds, " and ") + ")"
}
