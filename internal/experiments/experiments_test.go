package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

func TestTableFormat(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"a", "bb"}}
	tb.AddRow(1, 2.5)
	tb.AddRow("x", 12345.6)
	var buf bytes.Buffer
	if err := tb.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "2.500") || !strings.Contains(out, "12346") {
		t.Errorf("output:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Columns: []string{"a", "b"}}
	tb.AddRow(1, 2)
	var buf bytes.Buffer
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n" {
		t.Errorf("csv = %q", got)
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		give float64
		want string
	}{
		{give: 0, want: "0"},
		{give: 0.5, want: "0.500"},
		{give: 42.25, want: "42.2"},
		{give: 12345.9, want: "12346"},
	}
	for _, tt := range tests {
		if got := formatFloat(tt.give); got != tt.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestReportPassAndFormat(t *testing.T) {
	r := &Report{ID: "X", Name: "demo", PaperClaim: "claim"}
	r.check("first", true, "%v", 1, "1")
	if !r.Pass() {
		t.Error("should pass")
	}
	r.check("second", false, "%v", 2, "3")
	if r.Pass() {
		t.Error("should fail")
	}
	r.note("a note")
	var buf bytes.Buffer
	if err := r.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"FAIL", "demo", "claim", "a note", "[ok  ] first", "[FAIL] second"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	e, ok := ByID("e10")
	if !ok || e.ID != "E10" {
		t.Errorf("ByID(e10) = %v,%v", e.ID, ok)
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should not resolve")
	}
	ids := IDs()
	if len(ids) != len(All()) {
		t.Errorf("IDs() has %d entries, All() %d", len(ids), len(All()))
	}
}

func TestScaleString(t *testing.T) {
	if ScaleQuick.String() != "quick" || ScaleFull.String() != "full" {
		t.Error("scale names")
	}
	if Scale(9).String() != "Scale(9)" {
		t.Error("unknown scale")
	}
}

func TestAllHaveDistinctIDs(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range All() {
		if e.ID == "" || e.Name == "" || e.PaperClaim == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

// reportSHA256 pins the SHA-256 of every quick-scale report at seed
// 12345, as Report.Format writes it: a change to the engine path an
// experiment plays, to its seeds or to what it prints shows here.
var reportSHA256 = map[string]string{
	"E1":  "a48a8ba2abec40dc0a02b2d44abd4e10651e7f16f49c63b82bb790762d48b9c7",
	"E2":  "6f52e034b5828a946147867f76a582b81fea21921954d64f9f2c075c5c312106",
	"E3":  "bedc3cf00487f852ac5dcef6d63231acf61d8e0e44dc65b3fa9d4a4e4e2e8fa6",
	"E4":  "ead91bbfdad4266bb28b52c55bf7738ba863cef8f04471f7148fce75d5ac95e2",
	"E5":  "e46ad11d2d1ba493ddf38b1277966e684f0cdf58c99e3f71ce1795a78bff39b0",
	"E6":  "ff851197c94f3005f44c58115f0ee6b71695e3f0e89f7a820a77a30f403dbf7a",
	"E7":  "ba7a1b784069d7f1b1137c3b0a6b90c612059ec15b0e48b8a10bb30e9995d31b",
	"E8":  "f8633d17bb343f88ccb008344ca1a4ac1a65ecd0e2412efa6fb1dd9166003438",
	"E9":  "33d39585366bcfc6c8739e7abc9f8b4c54e411e8fdd2756b2f35ad8b550caf73",
	"E10": "1327d4eb74dbb6110e2a9e5e53d4795b92ff7191b667a1f10ce7590e1f60da31",
	"E11": "2cabdc1df7f2d81fce6d97c90c44c020b52b818c5ab9c124fab95b06d5fb8056",
	"E12": "77b971ac57f4125c607ecca0ed3caf4cf575a2b73784be32c324c1f3fa0bd2ca",
	"E13": "2cf098da11e810eb27a54984a8322faadc86ef3339369caa7159263e72850793",
	"E14": "f52cefa995c43d23a5b3b37fced8e2886bf803daa4beff00cabf31d29cd8005c",
	"A1":  "94468830f68fbdc5320cb932e1f37a5617f22fae010a450627996e563bd50bb5",
	"A2":  "c228c1e463fcc8a760a99dcfe972a5b443af7e26e28b112cc8f798de1a488ee4",
	"X1":  "dd77ada6c079a3fae8fad32d0ba8ea5d7bbd2bf5b62d50dadc298e4ed440d356",
	"X2":  "e2d67b6436094e92c67170cbfde7ae9d3eb269739e07f55690bfada23d7296d0",
	"S1":  "5a20816833f5399b38f5f5e1a9c47da38875b4043f8013bb1b16393e817f500b",
	"S2":  "a9eec046139bc7b07bede715b36bfb089ee12b8d91c949b66ac210d29f347368",
}

// Per-experiment quick-scale runs. Each experiment's internal checks are
// the real assertions; the test fails if any check fails or the report
// differs from its pinned hash.
func runExperiment(t *testing.T, id string) {
	t.Helper()
	if testing.Short() {
		t.Skip("quick-scale experiment skipped in -short mode")
	}
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	rep, err := e.Run(Config{Scale: ScaleQuick, Seed: 12345})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Format(&buf); err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Errorf("experiment %s failed:\n%s", id, buf.String())
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != reportSHA256[id] {
		t.Errorf("experiment %s report sha256 = %s, want %s; report:\n%s", id, got, reportSHA256[id], buf.String())
	}
}

func TestE1(t *testing.T)  { runExperiment(t, "E1") }
func TestE2(t *testing.T)  { runExperiment(t, "E2") }
func TestE3(t *testing.T)  { runExperiment(t, "E3") }
func TestE4(t *testing.T)  { runExperiment(t, "E4") }
func TestE5(t *testing.T)  { runExperiment(t, "E5") }
func TestE6(t *testing.T)  { runExperiment(t, "E6") }
func TestE7(t *testing.T)  { runExperiment(t, "E7") }
func TestE8(t *testing.T)  { runExperiment(t, "E8") }
func TestE9(t *testing.T)  { runExperiment(t, "E9") }
func TestE10(t *testing.T) { runExperiment(t, "E10") }
func TestE11(t *testing.T) { runExperiment(t, "E11") }
func TestE12(t *testing.T) { runExperiment(t, "E12") }
func TestE13(t *testing.T) { runExperiment(t, "E13") }
func TestE14(t *testing.T) { runExperiment(t, "E14") }
func TestA1(t *testing.T)  { runExperiment(t, "A1") }
func TestA2(t *testing.T)  { runExperiment(t, "A2") }
func TestX1(t *testing.T)  { runExperiment(t, "X1") }
func TestX2(t *testing.T)  { runExperiment(t, "X2") }
func TestS1(t *testing.T)  { runExperiment(t, "S1") }
func TestS2(t *testing.T)  { runExperiment(t, "S2") }

// TestE11AcrossSeeds runs Lemma 1's check at every seed from 1 to 30.
// The reference is the exact expectation for the ⌊f⌋ nodes the run
// counts to. n·f/2 with the unrounded f overstates it on the n^¼ row,
// by 11% at n = 128 and 19% at n = 512, and seed 23 fell below the
// band against it.
func TestE11AcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale seed sweep skipped in -short mode")
	}
	for seed := uint64(1); seed <= 30; seed++ {
		rep, err := runE11(Config{Scale: ScaleQuick, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass() {
			var buf bytes.Buffer
			if err := rep.Format(&buf); err != nil {
				t.Fatal(err)
			}
			t.Errorf("seed %d:\n%s", seed, buf.String())
		}
	}
}
