package protocol

import (
	"fmt"
	"sync"

	"coherdb/internal/constraint"
	"coherdb/internal/obs"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// GenerateAllOpts builds all eight controller specifications, solves them
// in parallel with the incremental solver, installs the resulting tables
// in db, registers the protocol predicates, and returns per-table solve
// statistics keyed by table name. The solver options (workers, tracer,
// metrics) are forwarded to every per-controller solve. With a tracer
// set, each controller's spec construction is a protocol.build_spec span
// carrying its rule and constraint counts, beside the solve's
// constraint.solve span, so generation time splits into build, compile
// (the solve span's compile_time) and solve.
func GenerateAllOpts(db *sqlmini.DB, opts constraint.Options) (map[string]constraint.Stats, error) {
	RegisterFuncs(db.Register)
	builders := controllers()
	type result struct {
		name  string
		tab   *rel.Table
		stats constraint.Stats
		err   error
	}
	results := make([]result, len(builders))
	var wg sync.WaitGroup
	for i, c := range builders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			span := obs.StartSpan(opts.Tracer, "protocol.build_spec", obs.String("controller", c.name))
			spec, rs, err := c.build()
			if err != nil {
				span.SetAttr(obs.String("error", err.Error()))
				span.Finish()
				results[i] = result{name: c.name, err: err}
				return
			}
			if span != nil {
				span.SetAttr(obs.Int("rules", rs.Len()), obs.Int("constraints", spec.ConstraintCount()))
				span.Finish()
			}
			tab, stats, err := constraint.SolveOpts(spec, opts)
			results[i] = result{name: c.name, tab: tab, stats: stats, err: err}
		}()
	}
	wg.Wait()
	stats := make(map[string]constraint.Stats, len(builders))
	for _, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("protocol: generating %s: %w", r.name, r.err)
		}
		db.PutTable(r.tab)
		stats[r.name] = r.stats
	}
	return stats, nil
}

// Figure1Table renders the message catalog as a relation (the paper's
// Figure 1): message name, class, whether it carries data, description.
func Figure1Table() *rel.Table {
	t := rel.MustNewTable("messages", "message", "class", "data", "description")
	for _, m := range Messages() {
		t.MustInsert(rel.S(m.Name), rel.S(m.Class.String()), rel.B(m.Data), rel.S(m.Desc))
	}
	return t
}

// Virtual channel names (§4.2). VC0 carries requests from local to home,
// VC1 requests from home to remote, VC2 responses from remote to home (and,
// once VC4 exists, responses from home memory to the home directory), VC3
// responses from home to local, VC4 requests from the home directory to the
// home memory controller. VC5 and the dedicated path are introduced by the
// final fix.
const (
	VC0 = "VC0"
	VC1 = "VC1"
	VC2 = "VC2"
	VC3 = "VC3"
	VC4 = "VC4"
	VC5 = "VC5"
	// DPath marks the dedicated hardware path from the directory to the
	// home memory controller added to resolve the Fig. 4 deadlock; a
	// dedicated per-transaction path is not a shared finite channel, so
	// messages routed over it are omitted from V.
	DPath = "DPATH"
)

// Assignment names for BuildAssignment.
const (
	// AssignInitial is the initial 4-channel assignment: the home
	// directory<->memory traffic shares VC0/VC2 with the inter-quad
	// traffic. §4.2: "several cycles leading to deadlocks were found;
	// most of these deadlocks involved the directory controller and the
	// memory controller at the home node".
	AssignInitial = "initial4"
	// AssignVC4 adds VC4 for directory->memory requests. §4.2:
	// "Application of the method to this new assignment discovered this
	// deadlock" — the VC2/VC4 cycle of Fig. 4.
	AssignVC4 = "vc4"
	// AssignFixed routes directory->memory requests over the dedicated
	// hardware path (removing them from the channel dependency graph) and
	// gives the final completion acknowledgements their own VC5.
	AssignFixed = "fixed"
)

// vcRow is one (message, source, destination, channel) assignment.
type vcRow struct {
	m, s, d, v string
}

// interQuadRows returns the assignments shared by every variant: the
// inter-quad request/response channels VC0-VC3, assigned by source,
// destination and the request/response classification (§4.2).
func interQuadRows() []vcRow {
	var rows []vcRow
	// Requests local -> home.
	for _, m := range []string{"read", "readex", "upgrade", "readinv", "wb",
		"pwb", "flush", "replhint", "prefetch", "ioread", "iowrite",
		"ucread", "ucwrite", "fetchadd", "sync", "intr"} {
		rows = append(rows, vcRow{m, RoleLocal, RoleHome, VC0})
	}
	// Requests home -> remote (snoops and forwarded interrupts).
	for _, m := range []string{"sinv", "sread", "sflush", "intr"} {
		rows = append(rows, vcRow{m, RoleHome, RoleRemote, VC1})
	}
	// Responses remote -> home.
	for _, m := range []string{"idone", "sdone", "sdata", "swbdata", "intrack"} {
		rows = append(rows, vcRow{m, RoleRemote, RoleHome, VC2})
	}
	// Responses home -> local.
	for _, m := range []string{"data", "datax", "compl", "retry", "nack",
		"upgack", "wbcompl", "flcompl", "iodata", "iocompl", "ucdata",
		"uccompl", "atdata", "pfdata", "syncack", "intrack", "replack"} {
		rows = append(rows, vcRow{m, RoleHome, RoleLocal, VC3})
	}
	return rows
}

// dirMemRequests are the home directory -> home memory messages.
var dirMemRequests = []string{"mread", "mwrite", "mrmw", "mwrpart", "wb"}

// memDirResponses are the home memory -> home directory messages.
var memDirResponses = []string{"mdata", "mdone", "compl", "retry"}

// BuildAssignment constructs the virtual channel assignment table V
// (columns m, s, d, v) for the named variant. Messages routed over the
// dedicated path are omitted: a dedicated path is not a shared channel
// resource and induces no dependencies.
func BuildAssignment(name string) (*rel.Table, error) {
	t := rel.MustNewTable("V", "m", "s", "d", "v")
	rows := interQuadRows()
	switch name {
	case AssignInitial:
		// Home-local traffic shares the inter-quad channels.
		for _, m := range dirMemRequests {
			rows = append(rows, vcRow{m, RoleHome, RoleHome, VC0})
		}
		for _, m := range memDirResponses {
			rows = append(rows, vcRow{m, RoleHome, RoleHome, VC2})
		}
		// The final completion from the requestor shares VC0.
		rows = append(rows, vcRow{"compl", RoleLocal, RoleHome, VC0})
	case AssignVC4:
		for _, m := range dirMemRequests {
			rows = append(rows, vcRow{m, RoleHome, RoleHome, VC4})
		}
		for _, m := range memDirResponses {
			rows = append(rows, vcRow{m, RoleHome, RoleHome, VC2})
		}
		// The final completion shares the response channel toward home.
		rows = append(rows, vcRow{"compl", RoleLocal, RoleHome, VC2})
	case AssignFixed:
		// mread and mwrite — the directory->memory accesses that can be
		// triggered while processing a response — move to the dedicated
		// path and are omitted from V. Forwarded writebacks and the
		// remaining request-path accesses stay on VC4.
		for _, m := range []string{"mrmw", "mwrpart", "wb"} {
			rows = append(rows, vcRow{m, RoleHome, RoleHome, VC4})
		}
		for _, m := range memDirResponses {
			rows = append(rows, vcRow{m, RoleHome, RoleHome, VC2})
		}
		// The final completion gets its own channel.
		rows = append(rows, vcRow{"compl", RoleLocal, RoleHome, VC5})
	default:
		return nil, fmt.Errorf("protocol: unknown assignment %q", name)
	}
	for _, r := range rows {
		t.MustInsert(rel.S(r.m), rel.S(r.s), rel.S(r.d), rel.S(r.v))
	}
	return t, nil
}

// AssignmentNames returns the assignment variants in the order of the §4.2
// narrative.
func AssignmentNames() []string {
	return []string{AssignInitial, AssignVC4, AssignFixed}
}
