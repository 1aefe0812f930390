package protocol

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/obs"
	"coherdb/internal/sqlmini"
)

// chainFor is the text form of RuleSet.chain, kept as its oracle: the
// ternary constraint chain for one output column, written out over every
// rule's When text.
func chainFor(rs *RuleSet, col string) string {
	var sb strings.Builder
	any := false
	for _, r := range rs.rules {
		v, ok := r.Set[col]
		if ok && v != "NULL" {
			any = true
		}
	}
	if !any {
		return col + " = NULL"
	}
	for _, r := range rs.rules {
		v, ok := r.Set[col]
		if !ok {
			v = "NULL"
		}
		sb.WriteString("(")
		sb.WriteString(r.When)
		sb.WriteString(") ? ")
		sb.WriteString(col)
		sb.WriteString(" = ")
		sb.WriteString(quoteVal(v))
		sb.WriteString(" : ")
	}
	sb.WriteString(col)
	sb.WriteString(" = NULL")
	return sb.String()
}

// legalityText is the text form of the legality disjunction: the OR of
// every rule condition.
func legalityText(rs *RuleSet) string {
	var sb strings.Builder
	for i, r := range rs.rules {
		if i > 0 {
			sb.WriteString(" or ")
		}
		sb.WriteString("(")
		sb.WriteString(r.When)
		sb.WriteString(")")
	}
	return sb.String()
}

// legalityCols names the column each controller attaches its legality
// disjunction to; D's inputs are constrained column by column instead.
var legalityCols = map[string]string{
	DirectoryTable: "",
	MemoryTable:    "inmsg",
	CacheTable:     "cachest",
	NodeTable:      "mshrst",
	RACTable:       "racst",
	IOBridgeTable:  "iost",
	InterruptTable: "intst",
	SyncTable:      "syncst",
}

// parseResolved parses constraint text the way Spec.Constrain does.
func parseResolved(t *testing.T, spec *constraint.Spec, text string) sqlmini.Expr {
	t.Helper()
	e, err := sqlmini.ParseExpr(text)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return sqlmini.ResolveSymbols(e, spec.HasColumn)
}

// TestConstraintTextRoundTrip checks that every constraint of every spec
// prints to text that parses and resolves back to the identical tree, so
// the built rule chains are exactly what parsing their text would give.
func TestConstraintTextRoundTrip(t *testing.T) {
	specs := goldenSpecs(t)
	for _, sb := range SnoopSpecBuilders() {
		s, err := sb.Build()
		if err != nil {
			t.Fatal(err)
		}
		specs["snoop/"+sb.Name] = s
	}
	for name, spec := range specs {
		for _, col := range spec.ColumnNames() {
			c := spec.Constraint(col)
			if c == nil {
				continue
			}
			if got := parseResolved(t, spec, c.String()); !reflect.DeepEqual(got, c) {
				t.Errorf("%s.%s: constraint does not round-trip through its text", name, col)
			}
		}
	}
}

// TestBuiltChainsMatchTextOracle checks the rule compiler against its text
// oracle: for every controller, each output chain and the legality
// disjunction are the trees the parser gives chainFor's and legalityText's
// text.
func TestBuiltChainsMatchTextOracle(t *testing.T) {
	for _, c := range controllers() {
		spec, rs, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range spec.Columns() {
			if sc.Kind != constraint.Output {
				continue
			}
			col := sc.Name
			want := parseResolved(t, spec, chainFor(rs, col))
			if !reflect.DeepEqual(spec.Constraint(col), want) {
				t.Errorf("%s.%s: built chain differs from the text oracle", c.name, col)
			}
		}
		if lc := legalityCols[c.name]; lc != "" {
			want := parseResolved(t, spec, legalityText(rs))
			if !reflect.DeepEqual(spec.Constraint(lc), want) {
				t.Errorf("%s.%s: built legality disjunction differs from the text oracle", c.name, lc)
			}
		}
	}
}

// TestGenerateSpanAttribution checks generation's per-layer attribution:
// every controller gets a protocol.build_spec span with its rule and
// constraint counts beside the constraint.solve span that carries the
// compile time.
func TestGenerateSpanAttribution(t *testing.T) {
	c := obs.NewCollector(4096)
	if _, err := GenerateAllOpts(sqlmini.NewDB(), constraint.Options{Tracer: c}); err != nil {
		t.Fatal(err)
	}
	builds := map[string]map[string]string{}
	solves := map[string]map[string]string{}
	for _, sp := range c.Spans() {
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		switch sp.Name {
		case "protocol.build_spec":
			builds[attrs["controller"]] = attrs
		case "constraint.solve":
			solves[attrs["controller"]] = attrs
		}
	}
	for _, ctl := range controllers() {
		spec, rs, err := ctl.build()
		if err != nil {
			t.Fatal(err)
		}
		b := builds[ctl.name]
		if b == nil {
			t.Fatalf("%s: no protocol.build_spec span", ctl.name)
		}
		if got := b["rules"]; got != strconv.Itoa(rs.Len()) {
			t.Errorf("%s: rules = %q, want %d", ctl.name, got, rs.Len())
		}
		if got := b["constraints"]; got != strconv.Itoa(spec.ConstraintCount()) {
			t.Errorf("%s: constraints = %q, want %d", ctl.name, got, spec.ConstraintCount())
		}
		if _, ok := solves[ctl.name]["compile_time"]; !ok {
			t.Errorf("%s: constraint.solve span without compile_time", ctl.name)
		}
	}
	if got := builds[DirectoryTable]["rules"]; got != "483" {
		t.Errorf("D rules = %s, want 483", got)
	}
}

// goldenSpecs gathers every controller spec plus the Fig. 3 fragment the
// solver benchmarks sweep.
func goldenSpecs(t *testing.T) map[string]*constraint.Spec {
	t.Helper()
	out := controllerSpecs(t)
	fig3, err := Figure3FragmentSpec(2)
	if err != nil {
		t.Fatal(err)
	}
	out["figure3"] = fig3
	return out
}
