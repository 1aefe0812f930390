package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"coherdb/internal/check"
	"coherdb/internal/obs"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// newTestDB builds a DB with a shared table D plus per-session scratch
// tables w1..wN.
func newTestDB(t testing.TB, nshared int) *sqlmini.DB {
	t.Helper()
	db := sqlmini.NewDB()
	stmts := []string{`CREATE TABLE D (k, v)`, `INSERT INTO D VALUES ('a', 'OK'), ('b', 'OK'), ('c', 'OK')`}
	for i := 1; i <= nshared; i++ {
		stmts = append(stmts, fmt.Sprintf("CREATE TABLE w%d (k, v)", i), fmt.Sprintf("INSERT INTO w%d VALUES ('seed', '0')", i))
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	return db
}

// testSuite is a two-invariant suite over D, both analyzable so the
// incremental path can skip them when a delta leaves D untouched.
func testSuite() *check.Suite {
	return check.SuiteFrom([]check.Invariant{
		{Name: "no-bad", Desc: "no BAD rows", Ref: "test", SQL: "SELECT k FROM D WHERE v = 'BAD'"},
		{Name: "no-over", Desc: "no OVER rows", Ref: "test", SQL: "SELECT k FROM D WHERE v = 'OVER'"},
	})
}

// startServer runs a line-protocol server over db on a loopback port.
func startServer(t testing.TB, db *sqlmini.DB, cfg Config) *Server {
	t.Helper()
	cfg.DB = db
	if cfg.Suite == nil {
		cfg.Suite = testSuite()
	}
	srv := New(cfg)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv
}

// client is a line-protocol test client.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

// dialClient connects and consumes the greeting (which carries the
// nondeterministic session id, so it is not part of transcripts).
func dialClient(t testing.TB, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := &client{conn: conn, r: bufio.NewReader(conn)}
	greet := c.response(t)
	if !strings.HasPrefix(greet, "ok coherdb session ") {
		conn.Close()
		t.Fatalf("greeting = %q", greet)
	}
	return c
}

// response reads one "."-terminated response.
func (c *client) response(t testing.TB) string {
	t.Helper()
	var sb strings.Builder
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v (got %q)", err, sb.String())
		}
		if line == ".\n" {
			return sb.String()
		}
		sb.WriteString(line)
	}
}

// cmd sends one command and returns its response body.
func (c *client) cmd(t testing.TB, line string) string {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		t.Fatalf("write: %v", err)
	}
	return c.response(t)
}

func (c *client) close() { c.conn.Close() }

// sessionScript is the mixed SELECT + DML + incremental-recheck workload
// session i runs: shadow the shared D, dirty it, watch the invariant
// fail, repair it, then touch only the session's own shared table and
// watch the suite skip. Every response is deterministic for a session
// in isolation, which is what TestServerDeterministicVerdicts leans on.
func sessionScript(i int) []string {
	w := fmt.Sprintf("w%d", i)
	return []string{
		`CREATE TABLE D AS SELECT * FROM D`,
		`\begin`,
		fmt.Sprintf(`INSERT INTO %s VALUES ('s%d', '1')`, w, i),
		fmt.Sprintf(`INSERT INTO D VALUES ('x%d', 'BAD')`, i),
		`\recheck`,
		`SELECT k FROM D WHERE v = 'BAD'`,
		`DELETE FROM D WHERE v = 'BAD'`,
		`\recheck`,
		fmt.Sprintf(`SELECT v FROM %s WHERE k = 's%d'`, w, i),
		fmt.Sprintf(`UPDATE %s SET v = '2' WHERE k = 's%d'`, w, i),
		fmt.Sprintf(`SELECT v FROM %s WHERE k = 's%d'`, w, i),
		`\recheck`,
	}
}

// runScript plays a script over one connection, concatenating the
// responses into a transcript.
func runScript(t testing.TB, addr string, script []string) string {
	c := dialClient(t, addr)
	defer c.close()
	var sb strings.Builder
	for _, line := range script {
		sb.WriteString(c.cmd(t, line))
		sb.WriteString(".\n")
	}
	c.cmd(t, `\quit`)
	return sb.String()
}

// TestServerDeterministicVerdicts is the acceptance check for the MVCC
// refactor: 8 concurrent sessions running mixed SELECT + DML +
// incremental re-checks produce transcripts byte-identical to the same
// scripts run serially, one session at a time, against an identically
// seeded database. Sessions only overlap on read access to shared state
// (each shadows D and owns its w<i>), so any cross-session bleed —
// a torn epoch, a leaked overlay, a recheck that saw another session's
// edits — shows up as a transcript diff.
func TestServerDeterministicVerdicts(t *testing.T) {
	const sessions = 8

	// Serial reference: fresh identically-seeded DB, one session at a time.
	serialSrv := startServer(t, newTestDB(t, sessions), Config{})
	serial := make([]string, sessions)
	for i := 0; i < sessions; i++ {
		serial[i] = runScript(t, serialSrv.Addr(), sessionScript(i+1))
	}

	// Concurrent run: all sessions at once against one server.
	srv := startServer(t, newTestDB(t, sessions), Config{})
	got := make([]string, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = runScript(t, srv.Addr(), sessionScript(i+1))
		}(i)
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		if got[i] != serial[i] {
			t.Errorf("session %d transcript diverged from serial run:\nconcurrent:\n%s\nserial:\n%s", i+1, got[i], serial[i])
		}
	}

	// Sanity: the transcripts actually exercised the incremental path.
	if !strings.Contains(serial[0], "VIOLATED no-bad: 1 rows") {
		t.Fatalf("expected a violation in the transcript:\n%s", serial[0])
	}
	if !strings.Contains(serial[0], "recheck: 0 rechecked, 2 skipped") {
		t.Fatalf("expected a fully skipped recheck in the transcript:\n%s", serial[0])
	}
}

// TestReadersDoNotBlockOnWriter proves reads never wait on the writer,
// without timing heuristics: a writer session is parked *inside* an
// INSERT (a registered UDF blocks while the single-writer lock is
// held), and a reader session must still complete a SELECT and observe
// the pre-writer epoch. Under the old RWMutex engine the SELECT would
// deadlock here, not merely slow down.
func TestReadersDoNotBlockOnWriter(t *testing.T) {
	db := newTestDB(t, 1)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	db.Register("gate", func(args []rel.Value) (rel.Value, error) {
		once.Do(func() { close(entered) })
		<-release
		return args[0], nil
	})
	srv := startServer(t, db, Config{})

	writer := dialClient(t, srv.Addr())
	defer writer.close()
	writerDone := make(chan string, 1)
	go func() {
		writerDone <- writer.cmd(t, `INSERT INTO w1 VALUES (gate('k'), '9')`)
	}()
	<-entered // writer now holds the write path, mid-statement
	epochBefore := db.Epoch()

	reader := dialClient(t, srv.Addr())
	defer reader.close()
	got := reader.cmd(t, `SELECT v FROM D WHERE k = 'a'`)
	if !strings.Contains(got, "OK") {
		t.Fatalf("reader result = %q", got)
	}
	if e := db.Epoch(); e != epochBefore {
		t.Fatalf("epoch advanced (%d -> %d) while writer was parked", epochBefore, e)
	}

	close(release)
	if res := <-writerDone; !strings.Contains(res, "ok (1 rows affected)") {
		t.Fatalf("writer result = %q", res)
	}
	if e := db.Epoch(); e <= epochBefore {
		t.Fatalf("writer publish did not advance the epoch (still %d)", e)
	}
}

// TestAdmissionBackpressure pins the two admission bounds: MaxSessions
// concurrent sessions, MaxWaiters queued, everyone else turned away
// with a busy error rather than queued without bound.
func TestAdmissionBackpressure(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServer(t, newTestDB(t, 1), Config{MaxSessions: 2, MaxWaiters: 1, Metrics: reg})

	c1 := dialClient(t, srv.Addr())
	defer c1.close()
	c2 := dialClient(t, srv.Addr())
	defer c2.close()

	// Third connection queues; wait until the server counts it.
	queued, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer queued.Close()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Gauge("coherdb_server_queue_depth").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("third connection never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Fourth connection overflows the queue and is rejected immediately.
	busy, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer busy.Close()
	bc := &client{conn: busy, r: bufio.NewReader(busy)}
	if got := bc.response(t); !strings.Contains(got, "too many sessions") {
		t.Fatalf("overflow connection got %q, want busy error", got)
	}
	if reg.Counter("coherdb_server_rejected_total").Value() < 1 {
		t.Fatal("rejected counter not bumped")
	}

	// Freeing a slot admits the queued connection.
	c1.cmd(t, `\quit`)
	c1.close()
	qc := &client{conn: queued, r: bufio.NewReader(queued)}
	if got := qc.response(t); !strings.HasPrefix(got, "ok coherdb session ") {
		t.Fatalf("queued connection got %q, want greeting", got)
	}
}

// TestShutdownDrains checks the graceful half of Shutdown: an in-flight
// statement runs to completion (and its client hears a goodbye), while
// new connections are refused the moment draining starts.
func TestShutdownDrains(t *testing.T) {
	db := newTestDB(t, 1)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	db.Register("gate", func(args []rel.Value) (rel.Value, error) {
		once.Do(func() { close(entered) })
		<-release
		return args[0], nil
	})
	srv := startServer(t, db, Config{})

	c := dialClient(t, srv.Addr())
	defer c.close()
	type resp struct{ body, bye string }
	inflight := make(chan resp, 1)
	go func() {
		body := c.cmd(t, `SELECT k FROM D WHERE v = gate('OK')`)
		inflight <- resp{body, c.response(t)}
	}()
	<-entered

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	// Shutdown must wait for the parked statement.
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a statement in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// New connections are refused while draining (listener is closed, or
	// the connection is answered with a draining error and closed).
	if conn, err := net.Dial("tcp", srv.Addr()); err == nil {
		rc := &client{conn: conn, r: bufio.NewReader(conn)}
		line, rerr := rc.r.ReadString('\n')
		if rerr == nil && !strings.Contains(line, "draining") {
			t.Fatalf("connection during drain got %q", line)
		}
		conn.Close()
	}

	close(release)
	r := <-inflight
	if !strings.Contains(r.body, "a") || !strings.Contains(r.body, "c") {
		t.Fatalf("in-flight statement result truncated: %q", r.body)
	}
	if !strings.Contains(r.bye, "bye draining") {
		t.Fatalf("drained client got %q, want goodbye", r.bye)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v after drain", err)
	}
}

// TestSharedWritesVisibleAcrossSessions checks the other half of the
// MVCC contract: shared-table DML published by one session becomes
// visible to later statements of another session (each statement pins
// the *current* epoch, not the session's first).
func TestSharedWritesVisibleAcrossSessions(t *testing.T) {
	srv := startServer(t, newTestDB(t, 1), Config{})
	a := dialClient(t, srv.Addr())
	defer a.close()
	b := dialClient(t, srv.Addr())
	defer b.close()

	if got := a.cmd(t, `INSERT INTO w1 VALUES ('pub', '7')`); !strings.Contains(got, "ok (1 rows affected)") {
		t.Fatalf("insert: %q", got)
	}
	if got := b.cmd(t, `SELECT v FROM w1 WHERE k = 'pub'`); !strings.Contains(got, "7") {
		t.Fatalf("session b does not see published write: %q", got)
	}
	// But a shadow stays private: b shadows w1, a keeps seeing shared w1.
	if got := b.cmd(t, `CREATE TABLE w1 AS SELECT * FROM w1`); strings.Contains(got, "error") {
		t.Fatalf("shadow: %q", got)
	}
	if got := b.cmd(t, `DELETE FROM w1`); !strings.Contains(got, "rows affected") {
		t.Fatalf("shadow delete: %q", got)
	}
	if got := a.cmd(t, `SELECT v FROM w1 WHERE k = 'pub'`); !strings.Contains(got, "7") {
		t.Fatalf("session a lost shared rows to b's shadow: %q", got)
	}
}
