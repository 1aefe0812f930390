package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilQueryLogIsInert(t *testing.T) {
	var q *QueryLog
	tok := q.StartSession("SELECT", "SELECT 1", 0)
	if tok != nil {
		t.Fatal("nil log must hand out nil tokens")
	}
	// All token methods must no-op on nil.
	tok.AddRows(5)
	tok.SetPhase(PhaseScan)
	tok.Finish(nil)
	inflight, slow := q.Snapshot()
	if inflight != nil || slow != nil {
		t.Fatal("nil log snapshot must be empty")
	}
	if err := q.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryLogInFlightAndSlow(t *testing.T) {
	q := NewQueryLog(4, time.Nanosecond) // everything is "slow"
	tok := q.StartSession("SELECT", "SELECT * FROM D", 0)
	tok.SetPhase(PhaseJoin)
	tok.AddRows(42)

	inflight, slow := q.Snapshot()
	if len(inflight) != 1 || len(slow) != 0 {
		t.Fatalf("inflight=%d slow=%d, want 1/0", len(inflight), len(slow))
	}
	r := inflight[0]
	if r.Kind != "SELECT" || r.Statement != "SELECT * FROM D" || r.Phase != "join" || r.Rows != 42 || r.Done {
		t.Fatalf("in-flight record = %+v", r)
	}

	time.Sleep(time.Microsecond)
	tok.Finish(nil)
	inflight, slow = q.Snapshot()
	if len(inflight) != 0 || len(slow) != 1 {
		t.Fatalf("after finish: inflight=%d slow=%d, want 0/1", len(inflight), len(slow))
	}
	if !slow[0].Done || slow[0].Phase != "done" || slow[0].ElapsedUS < 0 {
		t.Fatalf("slow record = %+v", slow[0])
	}
}

func TestQueryLogFastQueriesNotRetained(t *testing.T) {
	q := NewQueryLog(4, time.Hour)
	q.StartSession("SELECT", "fast", 0).Finish(nil)
	if _, slow := q.Snapshot(); len(slow) != 0 {
		t.Fatalf("fast query retained: %+v", slow)
	}
	// Failed statements are retained regardless of speed.
	q.StartSession("SELECT", "bad", 0).Finish(errors.New("boom"))
	_, slow := q.Snapshot()
	if len(slow) != 1 || slow[0].Err != "boom" {
		t.Fatalf("failed query not retained: %+v", slow)
	}
}

func TestQueryLogRingOverflow(t *testing.T) {
	q := NewQueryLog(2, time.Nanosecond)
	for _, stmt := range []string{"q1", "q2", "q3"} {
		tok := q.StartSession("SELECT", stmt, 0)
		time.Sleep(time.Microsecond)
		tok.Finish(nil)
	}
	_, slow := q.Snapshot()
	if len(slow) != 2 || slow[0].Statement != "q2" || slow[1].Statement != "q3" {
		t.Fatalf("ring = %+v, want oldest dropped", slow)
	}
}

func TestQueryLogTruncatesStatement(t *testing.T) {
	q := NewQueryLog(4, time.Nanosecond)
	long := strings.Repeat("x", 2*maxStatementLen)
	tok := q.StartSession("SELECT", long, 0)
	inflight, _ := q.Snapshot()
	if n := len(inflight[0].Statement); n != maxStatementLen+3 {
		t.Fatalf("statement length = %d, want %d", n, maxStatementLen+3)
	}
	tok.Finish(nil)
}

func TestQueryLogWriteJSON(t *testing.T) {
	q := NewQueryLog(4, time.Nanosecond)
	q.StartSession("SELECT", "live one", 0)
	tok := q.StartSession("INSERT", "done one", 0)
	time.Sleep(time.Microsecond)
	tok.Finish(nil)

	var buf bytes.Buffer
	if err := q.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		InFlight []QueryRecord `json:"in_flight"`
		Slow     []QueryRecord `json:"slow"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(out.InFlight) != 1 || out.InFlight[0].Statement != "live one" {
		t.Fatalf("in_flight = %+v", out.InFlight)
	}
	if len(out.Slow) != 1 || out.Slow[0].Statement != "done one" {
		t.Fatalf("slow = %+v", out.Slow)
	}
}

func TestQueryLogConcurrent(t *testing.T) {
	q := NewQueryLog(16, time.Nanosecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tok := q.StartSession("SELECT", "concurrent", 0)
				tok.SetPhase(PhaseScan)
				tok.AddRows(1)
				tok.Finish(nil)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			q.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if inflight, _ := q.Snapshot(); len(inflight) != 0 {
		t.Fatalf("%d statements still in flight", len(inflight))
	}
}
