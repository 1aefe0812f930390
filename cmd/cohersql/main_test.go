package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitStatus pins the exit status: a failing statement makes the
// command exit 1, both one-shot and on piped input, where the statements
// after it still run; a clean run exits 0 and bad flags exit 2.
func TestRunExitStatus(t *testing.T) {
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
