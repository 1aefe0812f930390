package specfile

import (
	"os"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/protocol"
)

// TestShippedSpecsInSync guards the spec artifacts under specs/: they must
// parse and solve to the same tables as the in-code builders, so a protocol
// revision that forgets to re-export them fails here.
func TestShippedSpecsInSync(t *testing.T) {
	if testing.Short() {
		t.Skip("full D generation is slow")
	}
	cases := map[string]func() (*constraint.Spec, error){
		"../../specs/directory.spec": protocol.SpecBuilders()[0].Build, // D
		"../../specs/readex.spec":    func() (*constraint.Spec, error) { return protocol.Figure3FragmentSpec(1) },
	}
	for path, build := range cases {
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("%s: %v (re-export with cohergen -export-spec)", path, err)
		}
		parsed, err := Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		protocol.RegisterFuncs(parsed.Spec.RegisterFunc)
		got, _, err := constraint.Solve(parsed.Spec)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ref, err := build()
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := constraint.Solve(ref)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := got.SetName(want.Name()).EqualRows(want)
		if err != nil || !eq {
			t.Fatalf("%s is out of sync with the code (%d vs %d rows); re-export with cohergen -export-spec",
				path, got.NumRows(), want.NumRows())
		}
	}
}
