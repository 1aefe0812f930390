package hwmap

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"coherdb/internal/rel"
)

// frozenMapping pins §5 end to end: the sha256 of the WriteCSV encoding
// of ED, of each implementation table (ImplementationTableNames order),
// of the reconstruction, and of the generated Go and Verilog. Recorded
// before the map phase moved onto dictionary codes, so any change in how
// ED is built, partitioned or reassembled must reproduce them exactly.
var frozenMapping = struct {
	ed, reconstruction, goSrc, verilog string
	tables                             [9]string
}{
	ed:             "89de3f18fcdb0076769746f2c198d9958fa8851b821139f2a772e97da6e3078e",
	reconstruction: "e453e398f302e2ef768710c652e93ab598aae2737c546a7fc921c7e181138092",
	goSrc:          "d227ce71efdd8f118a8c2f6cf95c3aa11cb328c5e913d6b238cb26b12672663f",
	verilog:        "73f03e8e0a95f1902dec79ee3d3301dad36b303d99e1e116b94fa3ea35c4c3f5",
	tables: [9]string{
		"ab87d92d5016b4c662a2d5af754a5af3a4ee9f1e74c55d31bf8382cc42c5486f", // Request_locmsg
		"f16ceb73cbb7229e673a96a645ec420f6bce675022b8bbf05451f02418cbd58a", // Request_remmsg
		"535db60162ed5afc8889b0bf57640feb04740efac8919fdfd012b47cf7bba5a5", // Request_memmsg
		"a2106e3638780d4fb9f476dfc305a4a35b5edd13608dc9a49a8db7133b645b46", // Request_dir
		"9f74c3f7f46b28067b45baf9e3db163effd09d335e7494c09ec21cf1c4107eba", // Request_bdir
		"c86dd912b812a115ed13a72d23765452cbf4826f133756245e77af94adc82ffe", // Response_locmsg
		"22859e0fcc2f5a800c393c5285a44f89c3f30fcec06e84f469292c85a0bd8acd", // Response_memmsg
		"5e7d592f9f65f841af9a45642f328410757af1128198c5e7ed27dbd0d963eac2", // Response_dir
		"df4849e6312421f1e0afcd2f9362cbac666b5bd647c028277815d6d00b5c2d8f", // Response_bdir
	},
}

// frozenMappingRows are the row counts behind those digests: ED, then the
// five request tables and the four response tables.
var frozenMappingRows = [10]int{968, 860, 860, 860, 860, 860, 108, 108, 108, 108}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func csvDigest(t *testing.T, tab *rel.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sha256Hex(sb.String())
}

// TestFrozenMappingGolden checks ED, the nine implementation tables, the
// reconstruction and the generated code against their frozen digests.
func TestFrozenMappingGolden(t *testing.T) {
	_, m := mapping(t)
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: sha256 %s, frozen %s", what, got, want)
		}
	}
	if got := m.Extended.NumRows(); got != frozenMappingRows[0] {
		t.Errorf("ED has %d rows, frozen %d", got, frozenMappingRows[0])
	}
	check("ED", csvDigest(t, m.Extended), frozenMapping.ed)
	names := ImplementationTableNames()
	if len(m.Tables) != len(names) {
		t.Fatalf("%d implementation tables, want %d", len(m.Tables), len(names))
	}
	for i, tab := range m.Tables {
		if got := tab.NumRows(); got != frozenMappingRows[i+1] {
			t.Errorf("%s has %d rows, frozen %d", names[i], got, frozenMappingRows[i+1])
		}
		check(names[i], csvDigest(t, tab), frozenMapping.tables[i])
	}
	rec, err := m.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	check("reconstruction", csvDigest(t, rec), frozenMapping.reconstruction)
	var goSrc strings.Builder
	if err := GenerateGo(&goSrc, "dctrl", m); err != nil {
		t.Fatal(err)
	}
	GenerateGoKeyHelper(&goSrc)
	check("generated Go", sha256Hex(goSrc.String()), frozenMapping.goSrc)
	var verilog strings.Builder
	if err := GenerateVerilog(&verilog, m); err != nil {
		t.Fatal(err)
	}
	check("generated Verilog", sha256Hex(verilog.String()), frozenMapping.verilog)
}
