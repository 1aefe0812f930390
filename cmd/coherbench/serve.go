package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"coherdb/internal/check"
	"coherdb/internal/core"
	"coherdb/internal/obs"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/server"
	"coherdb/internal/sqlmini"
)

// The serve workload puts the sqlmini and rel layers under read-mostly
// load, with MVCC epochs published beside the reads: closed-loop clients
// on line-protocol connections to an in-process server.Server over the
// generated tables. The loop is closed because a line-protocol client
// waits for each reply; an open loop on a two-CPU host would measure the
// scheduler, whose timer slack is as large as a median statement.
//
// Each connection runs a seeded mix: 90% reads (the invariant queries,
// whitespace joined onto one line, and point SELECTs on D), 8% INSERT and
// DELETE pairs on a scratch table only that connection writes (a shared
// table, so every write publishes an epoch), and 2% \begin / \recheck
// pairs.
type serveBench struct {
	seed  int64
	db    *sqlmini.DB
	suite *check.Suite
	srv   *server.Server
	reads []string
	// want holds each read's expected response, rendered at set-up through
	// a sqlmini.Session.
	want    [][]byte
	clients []*client
	// rec holds each connection's latency recorder, reused by every phase.
	rec []*windowed
	// recheckWant is the \recheck answer the warm-up received.
	recheckWant string
	// phases numbers measured phases, so that every phase inserts keys no
	// earlier phase used.
	phases int
	warm   time.Duration
	log    io.Writer
}

const pointSelects = 64

// serveConns is the number of client connections: two, or one on a
// single-CPU host, so load never needs more connections than CPUs.
func serveConns() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

func setupServe(o options) (bench, error) {
	p := core.New()
	if err := p.Generate(); err != nil {
		return nil, err
	}
	b := &serveBench{seed: o.seed, db: p.DB, suite: check.ProtocolSuite(), warm: 2 * time.Second, log: o.log}
	if o.short {
		b.warm = 200 * time.Millisecond
	}
	for c := 0; c < serveConns(); c++ {
		t, err := rel.NewTable(scratchTable(c), "k", "v")
		if err != nil {
			return nil, err
		}
		b.db.PutTable(t)
	}
	for _, inv := range b.suite.Invariants() {
		b.reads = append(b.reads, strings.Join(strings.Fields(inv.SQL), " "))
	}
	b.reads = append(b.reads, pointQueries(b.db.MustTable(protocol.DirectoryTable))...)
	sess := b.db.NewSession()
	for _, q := range b.reads {
		res, err := sess.Exec(q)
		if err != nil {
			return nil, fmt.Errorf("precomputing %q: %w", q, err)
		}
		var buf bytes.Buffer
		_ = res.Table.Write(&buf)
		b.want = append(b.want, buf.Bytes())
	}
	sess.Close()

	b.srv = server.New(server.Config{DB: b.db, Suite: b.suite})
	if err := b.srv.Serve("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for c := 0; c < serveConns(); c++ {
		cl, err := dial(b.srv.Addr())
		if err != nil {
			b.close()
			return nil, err
		}
		b.clients = append(b.clients, cl)
		b.rec = append(b.rec, newWindowed())
	}
	return b, nil
}

func scratchTable(conn int) string { return fmt.Sprintf("W%d", conn) }

// pointQueries selects D's outputs for the first distinct (inmsg, bdirst)
// pairs in row order: index-scan point lookups.
func pointQueries(d *rel.Table) []string {
	in, bd := d.ColIndex("inmsg"), d.ColIndex("bdirst")
	seen := map[string]bool{}
	var out []string
	for i := 0; i < d.NumRows() && len(out) < pointSelects; i++ {
		a, b := d.At(i, in), d.At(i, bd)
		if a.IsNull() || b.IsNull() || seen[a.Key()+"\x00"+b.Key()] {
			continue
		}
		seen[a.Key()+"\x00"+b.Key()] = true
		out = append(out, fmt.Sprintf("SELECT locmsg, remmsg, memmsg, nxtbdirst FROM D WHERE inmsg = %s AND bdirst = %s",
			a.Quoted(), b.Quoted()))
	}
	return out
}

// command is one step of the mix.
type command struct {
	kind string // select, dml, begin or recheck
	text string
	read int // index into reads, for select
}

// mix draws one connection's command sequence. The draw depends only on the
// seed and the connection, so a phase of the same size replays it exactly;
// the phase number only keeps inserted keys unique.
type mix struct {
	rng     *rand.Rand
	conn    int
	phase   int
	keys    int
	pending string // key inserted and not yet deleted
	begun   bool
}

func newMix(seed int64, conn, phase int) *mix {
	return &mix{rng: rand.New(rand.NewSource(seed*1009 + int64(conn))), conn: conn, phase: phase}
}

func (m *mix) next(reads []string) command {
	r := m.rng.Intn(100)
	switch {
	case r < 90:
		i := m.rng.Intn(len(reads))
		return command{kind: "select", text: reads[i], read: i}
	case r < 98:
		if m.pending == "" {
			m.pending = fmt.Sprintf("c%d-p%d-%d", m.conn, m.phase, m.keys)
			m.keys++
			return command{kind: "dml", text: fmt.Sprintf("INSERT INTO %s VALUES ('%s', 'v')", scratchTable(m.conn), m.pending)}
		}
		return m.deletePending()
	default:
		m.begun = !m.begun
		if m.begun {
			return command{kind: "begin", text: `\begin`}
		}
		return command{kind: "recheck", text: `\recheck`}
	}
}

func (m *mix) deletePending() command {
	key := m.pending
	m.pending = ""
	return command{kind: "dml", text: fmt.Sprintf("DELETE FROM %s WHERE k = '%s'", scratchTable(m.conn), key)}
}

// checkAnswer counts one statement's answer on connection c: read
// responses must equal the precomputed ones, writes must affect one row,
// and \recheck must repeat the warm-up's answer.
func (b *serveBench) checkAnswer(c int, r *connRun, cmd command, body []byte) {
	var ok bool
	switch cmd.kind {
	case "select":
		ok = bytes.Equal(body, b.want[cmd.read])
	case "dml":
		ok = string(body) == "ok (1 rows affected)\n"
	case "begin":
		ok = string(body) == "ok begin\n"
	default:
		ok = string(body) == b.recheckWant
	}
	r.ops++
	if !ok {
		r.failed++
		failLog(b.log, r.failed, fmt.Errorf("connection %d, %q: unexpected answer %q", c, cmd.text, body))
	}
}

func (b *serveBench) warmUp() (*phase, error) {
	// The first \begin / \recheck pair fixes the answer every later
	// \recheck must repeat; it must report a clean suite.
	c := b.clients[0]
	if _, err := c.do(`\begin`); err != nil {
		return nil, err
	}
	body, err := c.do(`\recheck`)
	if err != nil {
		return nil, err
	}
	b.recheckWant = string(body)
	ph, err := b.measure(size{dur: b.warm}, nil)
	if err != nil {
		return nil, err
	}
	ph.ops += 2
	if !strings.Contains(b.recheckWant, " 0 failed, 0 errors") {
		ph.failed++
	}
	return ph, nil
}

// measure drives every connection for the phase. Traced phases then replay
// the same mix in-process through sqlmini.Session, so that the engine's
// share of a statement can be told from the protocol's.
func (b *serveBench) measure(sz size, tr obs.Tracer) (*phase, error) {
	b.phases++
	ph := &phase{counts: map[string]float64{}, win: &windowed{}}
	counts0, epoch0 := sqlCountsOf(b.db), b.db.Epoch()
	start := time.Now()
	runs, err := b.forEachConn(func(c int, r *connRun) error {
		return b.drive(c, r, sz, start, tr)
	})
	if err != nil {
		return nil, err
	}
	ph.busy = time.Since(start)
	st := sqlCountsOf(b.db).minus(counts0)
	ph.counts["epochs"] = float64(b.db.Epoch() - epoch0)
	ph.counts["engine_stmts"] = float64(st.stmts)
	ph.counts["rows_scanned"] = float64(st.scanned)
	ph.counts["index_scans"] = float64(st.indexScans)
	ph.counts["hash_joins"] = float64(st.hashJoins)
	ph.counts["plan_hits"] = float64(st.hits)
	ph.counts["plan_misses"] = float64(st.misses)
	for _, r := range runs {
		ph.reps = append(ph.reps, r.reps)
		ph.win.merge(r.lat)
		ph.ops += r.ops
		ph.failed += r.failed
	}
	ph.work = float64(ph.win.n)
	if tr == nil {
		return ph, nil
	}

	b.phases++
	runs, err = b.forEachConn(func(c int, r *connRun) error {
		return b.replay(c, r, ph.reps[c], tr)
	})
	if err != nil {
		return nil, err
	}
	inproc := &windowed{}
	for _, r := range runs {
		inproc.merge(r.lat)
		ph.ops += r.ops
		ph.failed += r.failed
	}
	ph.counts["proto_overhead_us"] = ph.win.mean() - inproc.mean()
	return ph, nil
}

// connRun is what one connection did in a phase.
type connRun struct {
	reps, ops, failed int
	lat               *windowed
}

// forEachConn runs f for every connection concurrently, each with its
// connection's latency recorder, and waits for all.
func (b *serveBench) forEachConn(f func(c int, r *connRun) error) ([]*connRun, error) {
	runs := make([]*connRun, len(b.clients))
	errs := make([]error, len(b.clients))
	var wg sync.WaitGroup
	for c := range b.clients {
		b.rec[c].reset()
		runs[c] = &connRun{lat: b.rec[c]}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = f(c, runs[c])
			runs[c].lat.finish()
		}(c)
	}
	wg.Wait()
	return runs, errors.Join(errs...)
}

// drive runs connection c's mix over the line protocol. A lost connection
// ends the run; a wrong answer counts as a failed operation.
func (b *serveBench) drive(c int, r *connRun, sz size, start time.Time, tr obs.Tracer) error {
	cl := b.clients[c]
	m := newMix(b.seed, c, b.phases)
	for ; sz.more(c, r.reps, start); r.reps++ {
		cmd := m.next(b.reads)
		root := obs.StartSpan(tr, "serve.stmt")
		sp := root.Child("server." + cmd.kind)
		t0 := time.Now()
		body, err := cl.do(cmd.text)
		d := time.Since(t0)
		sp.Finish()
		if err != nil {
			return fmt.Errorf("connection %d: %w", c, err)
		}
		r.lat.add(d)
		b.checkAnswer(c, r, cmd, body)
		root.Finish()
	}
	if m.pending != "" {
		cmd := m.deletePending()
		body, err := cl.do(cmd.text)
		if err != nil {
			return fmt.Errorf("connection %d: %w", c, err)
		}
		b.checkAnswer(c, r, cmd, body)
	}
	return nil
}

// sessionSpans names the in-process call behind each statement kind.
var sessionSpans = map[string]string{
	"select":  "sqlmini.session_select",
	"dml":     "sqlmini.session_dml",
	"begin":   "sqlmini.session_begin",
	"recheck": "check.session_recheck",
}

// replay runs reps steps of connection c's mix in-process, through its own
// sqlmini.Session, doing what the server does for each command short of
// rendering a response; results are checked outside the timed call.
func (b *serveBench) replay(c int, r *connRun, reps int, tr obs.Tracer) error {
	sess := b.db.NewSession()
	defer sess.Close()
	var rev *sqlmini.Revision
	var prev []check.Result
	run := func(cmd command) (*sqlmini.Result, error) {
		switch cmd.kind {
		case "begin":
			rev, prev = sess.BeginRevision(), nil
			return nil, nil
		case "recheck":
			prev = b.suite.RunDelta(sess, prev, rev.Commit(), check.Options{})
			return nil, nil
		}
		return sess.Exec(cmd.text)
	}
	count := func(cmd command, res *sqlmini.Result, err error) {
		ok := err == nil
		switch {
		case !ok:
		case cmd.kind == "select":
			var buf bytes.Buffer
			_ = res.Table.Write(&buf)
			ok = bytes.Equal(buf.Bytes(), b.want[cmd.read])
		case cmd.kind == "dml":
			ok = res.Affected == 1
		case cmd.kind == "recheck":
			sum := check.Summarize(prev)
			ok = sum.Failed == 0 && sum.Errors == 0
		}
		r.ops++
		if !ok {
			r.failed++
			failLog(b.log, r.failed, fmt.Errorf("in-process connection %d, %q: wrong result (%v)", c, cmd.text, err))
		}
	}
	m := newMix(b.seed, c, b.phases)
	for ; r.reps < reps; r.reps++ {
		cmd := m.next(b.reads)
		root := obs.StartSpan(tr, "serve.replay")
		sp := root.Child(sessionSpans[cmd.kind])
		t0 := time.Now()
		res, err := run(cmd)
		r.lat.add(time.Since(t0))
		sp.Finish()
		count(cmd, res, err)
		root.Finish()
	}
	if m.pending != "" {
		cmd := m.deletePending()
		res, err := run(cmd)
		count(cmd, res, err)
	}
	return nil
}

func (b *serveBench) layers(plain, traced *phase, sp spanStats) map[string]float64 {
	c := plain.counts
	stmts := c["engine_stmts"]
	return map[string]float64{
		"server.select_p50_us":          sp.dur["server.select"].pct(50),
		"server.dml_p50_us":             sp.dur["server.dml"].pct(50),
		"server.recheck_p50_us":         sp.dur["server.recheck"].pct(50),
		"sqlmini.session_select_p50_us": sp.dur["sqlmini.session_select"].pct(50),
		"sqlmini.session_dml_p50_us":    sp.dur["sqlmini.session_dml"].pct(50),
		"check.session_recheck_p50_us":  sp.dur["check.session_recheck"].pct(50),
		"server.proto_overhead_us":      traced.counts["proto_overhead_us"],
		"rel.epochs_per_s":              c["epochs"] / plain.busy.Seconds(),
		"sqlmini.plan_cache_hit_ratio":  c["plan_hits"] / (c["plan_hits"] + c["plan_misses"]),
		"sqlmini.rows_scanned_per_stmt": c["rows_scanned"] / stmts,
		"sqlmini.index_scans_per_stmt":  c["index_scans"] / stmts,
		"sqlmini.hash_joins_per_stmt":   c["hash_joins"] / stmts,
	}
}

func (b *serveBench) close() {
	for _, c := range b.clients {
		c.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx)
}

// client is one line-protocol connection.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	buf  []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriter(conn)}
	greeting, err := c.read()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !strings.HasPrefix(string(greeting), "ok coherdb") {
		conn.Close()
		return nil, fmt.Errorf("server refused the connection: %s", greeting)
	}
	return c, nil
}

// do sends one command line and returns the response body, without the
// closing "." line. The body aliases a buffer the next call reuses.
func (c *client) do(line string) ([]byte, error) {
	c.w.WriteString(line)
	c.w.WriteByte('\n')
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.read()
}

func (c *client) read() ([]byte, error) {
	c.buf = c.buf[:0]
	lineStart := true
	for {
		chunk, err := c.r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			c.buf = append(c.buf, chunk...)
			lineStart = false
			continue
		}
		if err != nil {
			return nil, err
		}
		if lineStart && len(chunk) == 2 && chunk[0] == '.' {
			return c.buf, nil
		}
		c.buf = append(c.buf, chunk...)
		lineStart = true
	}
}

func (c *client) close() {
	_, _ = c.do(`\quit`)
	c.conn.Close()
}
