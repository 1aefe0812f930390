package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitStatus pins the exit status: a failing statement makes the
// command exit 1, both one-shot and on piped input, where the statements
// after it still run; a clean run exits 0 and bad flags exit 2. The lexer
// splits statements, so several on one line each run, in order, a
// comment after a semicolon does not hold the statement back, and a
// semicolon in a string literal does not end one.
func TestRunExitStatus(t *testing.T) {
	// bothCounts is D's count and then M's, one result after the other.
	const bothCounts = "483  \n-- result (1 rows) --\ncount\n-----\n10 "
	for _, tc := range []struct {
		name     string
		args     []string
		stdin    string
		want     int
		wantOut  string
		wantDiag string
	}{
		{name: "one-shot ok", args: []string{"-q", "SELECT COUNT(*) FROM D"}, want: 0, wantOut: "483"},
		{name: "one-shot error", args: []string{"-q", "SELECT nosuch FROM D"}, want: 1,
			wantDiag: "error: sqlmini: unknown column: nosuch"},
		{name: "piped ok", stdin: "SELECT COUNT(*) FROM D;\nquit\n", want: 0, wantOut: "483"},
		{name: "piped error then ok", stdin: "SELECT nosuch FROM D;\nSELECT COUNT(*) FROM D;\n", want: 1,
			wantOut: "483", wantDiag: "unknown column: nosuch"},
		{name: "piped error then quit", stdin: "SELECT nosuch FROM D;\nquit\n", want: 1},
		{name: "bad flag", args: []string{"-nosuch"}, want: 2},
		{name: "one-shot two statements", args: []string{"-q", "SELECT COUNT(*) FROM D; SELECT COUNT(*) FROM M"}, want: 0,
			wantOut: bothCounts},
		{name: "piped two statements on a line", stdin: "SELECT COUNT(*) FROM D; SELECT COUNT(*) FROM M;\n", want: 0,
			wantOut: bothCounts},
		{name: "piped comment after semicolon", stdin: "SELECT COUNT(*) FROM D; -- note\nSELECT COUNT(*) FROM M;\n", want: 0,
			wantOut: bothCounts},
		{name: "piped literal spanning lines", stdin: "SELECT COUNT(*) FROM D WHERE inmsg <> 'a;\nb';\n", want: 0,
			wantOut: "483"},
		{name: "piped literal left open", stdin: "SELECT COUNT(*) FROM D;\nSELECT 'a;\n", want: 1,
			wantOut: "483", wantDiag: "unterminated string literal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, strings.NewReader(tc.stdin), &stdout, &stderr)
			if got != tc.want {
				t.Errorf("exit status %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.want, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.wantOut) {
				t.Errorf("stdout lacks %q:\n%s", tc.wantOut, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.wantDiag) {
				t.Errorf("stderr lacks %q:\n%s", tc.wantDiag, stderr.String())
			}
		})
	}
}
