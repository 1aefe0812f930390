// Command cohersql is an interactive SQL shell over the protocol database:
// the eight generated controller tables plus anything created during the
// session. It is the ad-hoc interface the paper's architects used to query
// and check the tables.
//
// Usage:
//
//	cohersql                                       # REPL on stdin
//	cohersql -q "SELECT COUNT(*) FROM D"           # one-shot query
//	cohersql -q "EXPLAIN SELECT ..."               # show the query plan without executing
//	cohersql -q "EXPLAIN ANALYZE SELECT ..."       # run it and show per-operator rows/time/morsels
//	echo "SELECT DISTINCT inmsg FROM D" | cohersql
//	cohersql -metrics -q "..."                     # Prometheus-style metrics to stdout at exit
//	cohersql -trace -q "..."                       # per-statement spans as JSON lines to stderr
//	cohersql -listen :8080                         # live diagnostics: /metrics /healthz /debug/pprof /traces /queries
//	cohersql -trace-out trace.json -q "..."        # Perfetto-loadable Chrome trace of the session
//	cohersql -serve :7433                          # multi-session line-protocol server (MVCC sessions, \recheck)
//	cohersql -serve-http :7434                     # HTTP/JSON API: /v1/query /v1/session /v1/recheck
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"coherdb/internal/check"
	"coherdb/internal/core"
	"coherdb/internal/obs"
	"coherdb/internal/server"
	"coherdb/internal/sqlmini"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command over explicit arguments and streams. It
// returns the exit status: 2 for bad flags, 1 when setup or any statement
// failed (the remaining statements still run), 0 otherwise. Diagnostics
// output (-trace, -metrics, -trace-out) is flushed before it returns.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cohersql", flag.ContinueOnError)
	fs.SetOutput(stderr)
	query := fs.String("q", "", "execute the statements (separated by ';') and exit")
	strict := fs.Bool("strict-nulls", true, "use ANSI NULL semantics (off = constraint dialect)")
	workers := fs.Int("workers", 0, "bound within-query morsel parallelism (0 = shared pool size, 1 = serial)")
	morsel := fs.Int("morsel", 0, "rows per parallel scan batch (0 = default 1024)")
	traceFlag := fs.Bool("trace", false, "collect per-statement spans and dump them as JSON lines to stderr at exit")
	metricsFlag := fs.Bool("metrics", false, "write Prometheus-style metrics and session query stats to stdout at exit")
	listen := fs.String("listen", "", "serve live diagnostics (metrics, healthz, pprof, traces, queries) on this address, e.g. :8080")
	traceOut := fs.String("trace-out", "", "write the span tree as Chrome trace_event JSON (Perfetto-loadable) to this file at exit")
	serveAddr := fs.String("serve", "", "serve the multi-session line protocol on this address, e.g. :7433 (SIGINT/SIGTERM drains)")
	serveHTTP := fs.String("serve-http", "", "serve the HTTP/JSON query API (/v1/query, /v1/session, /v1/recheck) on this address")
	maxSessions := fs.Int("max-sessions", 0, "server mode: bound on concurrent sessions (0 = default 64)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cohersql:", err)
		return 1
	}

	diag, err := core.StartDiag(core.DiagConfig{
		Trace: *traceFlag, Metrics: *metricsFlag,
		Listen: *listen, TraceOut: *traceOut,
	})
	if err != nil {
		return fail(err)
	}

	p := core.New()
	diag.Attach(p)
	fmt.Fprintln(stderr, "generating controller tables...")
	if err := p.Generate(); err != nil {
		return fail(err)
	}
	p.DB.SetStrictNulls(*strict)
	p.DB.SetWorkers(*workers)
	if *morsel > 0 {
		p.DB.SetMorselSize(*morsel)
	}
	fmt.Fprintf(stderr, "tables: %s\n", strings.Join(p.DB.Names(), ", "))
	defer func() {
		if diag.Registry != nil {
			publishDBStats(diag.Registry, p)
		}
		diag.Close()
	}()

	if *serveAddr != "" || *serveHTTP != "" {
		if err := serve(p, diag, *serveAddr, *serveHTTP, *maxSessions, *workers); err != nil {
			return fail(err)
		}
		return 0
	}

	status := 0
	// execAll executes each statement in order, each under its own text
	// (the plan-cache key and the query log's record), and prints its
	// result.
	execAll := func(stmts []sqlmini.ScriptStmt, err error) {
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			status = 1
			return
		}
		for _, s := range stmts {
			res, err := p.DB.Exec(s.Text)
			if err != nil {
				fmt.Fprintln(stderr, "error:", err)
				status = 1
				continue
			}
			if res.Table != nil {
				fmt.Fprint(stdout, res.Table.String())
			} else {
				fmt.Fprintf(stdout, "ok (%d rows affected)\n", res.Affected)
			}
		}
	}

	if *query != "" {
		execAll(sqlmini.ParseScript(*query))
		return status
	}

	scanner := bufio.NewScanner(stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(stderr, "coherdb> ")
		} else {
			fmt.Fprint(stderr, "    ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && (trimmed == "quit" || trimmed == "exit" || trimmed == `\q`) {
			return status
		}
		if buf.Len() == 0 && trimmed == "tables" {
			fmt.Fprintln(stdout, strings.Join(p.DB.Names(), "\n"))
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		// Only a semicolon ends a statement, so only a line holding one
		// can complete the buffer; the lexer decides whether it did.
		if strings.Contains(line, ";") {
			stmts, err := sqlmini.ParseScript(buf.String())
			if !awaitsMore(stmts, err) {
				execAll(stmts, err)
				buf.Reset()
			}
		}
		prompt()
	}
	// Execute a trailing statement without a semicolon.
	execAll(sqlmini.ParseScript(buf.String()))
	return status
}

// awaitsMore reports whether a parsed buffer's last statement waits for
// more input: no semicolon ends it yet, or a literal in it is still open.
func awaitsMore(stmts []sqlmini.ScriptStmt, err error) bool {
	var se *sqlmini.SyntaxError
	if errors.As(err, &se) {
		return se.Unterminated()
	}
	return err == nil && len(stmts) > 0 && stmts[len(stmts)-1].Open
}

// serve runs the multi-session query server until SIGINT/SIGTERM, then
// drains: in-flight statements finish, clients hear a goodbye, and the
// diagnostics server completes its last scrape before the process exits.
// It returns an error only when a listener cannot start.
func serve(p *core.Pipeline, diag *core.Diag, lineAddr, httpAddr string, maxSessions, workers int) error {
	srv := server.New(server.Config{
		DB:          p.DB,
		Suite:       check.ProtocolSuite(),
		MaxSessions: maxSessions,
		Workers:     workers,
		Tracer:      diag.Tracer,
		Metrics:     diag.Registry,
	})
	if lineAddr != "" {
		if err := srv.Serve(lineAddr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "line protocol on %s (one statement per line; \\begin \\recheck \\epoch \\quit)\n", srv.Addr())
	}
	if httpAddr != "" {
		if err := srv.ServeHTTP(httpAddr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "http/json api on http://%s/v1/ (query, session, recheck)\n", srv.HTTPAddr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "%v: draining sessions...\n", s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	_ = diag.Shutdown(ctx)
	return nil
}

// publishDBStats turns the session's aggregate query statistics into
// registry counters so -metrics covers the SQL layer too.
func publishDBStats(reg *obs.Registry, p *core.Pipeline) {
	st := p.DB.Stats()
	for _, c := range []struct {
		name, help string
		v          int64
	}{
		{"coherdb_sql_statements_total", "Statements executed this session.", st.Statements},
		{"coherdb_sql_queries_total", "SELECT statements executed this session.", st.Queries},
		{"coherdb_sql_rows_scanned_total", "Rows scanned by table scans.", st.RowsScanned},
		{"coherdb_sql_rows_produced_total", "Rows produced (or affected) by statements.", st.RowsProduced},
		{"coherdb_sql_hash_joins_total", "Joins executed with the hash strategy.", st.HashJoins},
		{"coherdb_sql_loop_joins_total", "Joins executed with the nested-loop strategy.", st.LoopJoins},
		{"coherdb_sql_pushdown_hits_total", "WHERE conjuncts pushed below a join.", st.PushdownHits},
	} {
		reg.Help(c.name, c.help)
		reg.Counter(c.name).Add(c.v)
	}
	reg.Help("coherdb_sql_eval_seconds", "Total statement evaluation time.")
	reg.Histogram("coherdb_sql_eval_seconds", nil).ObserveDuration(st.EvalTime)
}
