package ingest

import "testing"

func TestParseBoolish(t *testing.T) {
	trues := []string{"true", "T", "1", "yes", "Y", " True "}
	falses := []string{"false", "F", "0", "no", "N"}
	for _, s := range trues {
		if v, err := parseBoolish(s); err != nil || !v {
			t.Fatalf("parseBoolish(%q) = %v, %v", s, v, err)
		}
	}
	for _, s := range falses {
		if v, err := parseBoolish(s); err != nil || v {
			t.Fatalf("parseBoolish(%q) = %v, %v", s, v, err)
		}
	}
	if _, err := parseBoolish("2"); err == nil {
		t.Fatal("expected error for unparseable label")
	}
}

// TestEncodeRowReasonIsDeterministic: a row with several bad cells
// always reports the first declared column, so quarantine.log is a
// function of the input and the schema alone.
func TestEncodeRowReasonIsDeterministic(t *testing.T) {
	s := Schema{Features: []Column{
		{Name: "c2"},
		{Name: "c0", Protected: true},
		{Name: "c1"},
	}}
	lay, err := s.Resolve([]string{"c0", "c1", "c2"})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, lay.Cols())
	for i := 0; i < 200; i++ {
		_, _, _, err := lay.EncodeRow([]string{"X", "Y", "Z"}, dst)
		if err == nil || err.Error() != `column 2 (c2): cannot parse "Z" as a number` {
			t.Fatalf("call %d: reason %v, want the first declared column's", i, err)
		}
	}
}

// TestLayoutFingerprintGolden pins the schema fingerprint a shard store
// records: a store written by an earlier build must still resume, so the
// hash of a numeric layout may not move. The values were computed when
// the fingerprint still carried a categorical level per column (empty
// for every numeric column).
func TestLayoutFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		schema Schema
		header []string
		want   string
	}{
		{
			Schema{Features: []Column{{Name: "age"}, {Name: "group", Protected: true}, {Name: "income"}}, Outcome: "label"},
			[]string{"age", "group", "income", "label"},
			"d5807fe47bf4d99c",
		},
		{
			Schema{ProtectedIndex: []int{1}, Outcome: "score", OutcomeScore: true},
			[]string{"x1", "prot", "score", "x2"},
			"adb1fe9e4fc813ff",
		},
	} {
		lay, err := tc.schema.Resolve(tc.header)
		if err != nil {
			t.Fatal(err)
		}
		if got := lay.fingerprint(); got != tc.want {
			t.Errorf("fingerprint of %v = %s, pinned %s", tc.header, got, tc.want)
		}
	}
}
