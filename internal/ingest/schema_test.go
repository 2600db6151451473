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

// TestEncodeRowReasonIsDeterministic: a row with several unknown
// categorical levels always reports the lowest such column, whatever the
// declaration order, so quarantine.log is a function of the input alone.
func TestEncodeRowReasonIsDeterministic(t *testing.T) {
	lvls := []string{"A", "B"}
	s := Schema{Features: []Column{
		{Name: "c2", Levels: lvls},
		{Name: "c0", Levels: lvls},
		{Name: "c1", Levels: lvls},
	}}
	lay, err := s.Resolve([]string{"c0", "c1", "c2"})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, lay.Cols())
	for i := 0; i < 200; i++ {
		_, _, _, err := lay.EncodeRow([]string{"X", "Y", "Z"}, dst)
		if err == nil || err.Error() != `column 0: unknown level "X"` {
			t.Fatalf("call %d: reason %v, want column 0's", i, err)
		}
	}
}
