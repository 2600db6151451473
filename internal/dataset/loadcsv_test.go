package dataset

import (
	"strings"
	"testing"
)

const classificationCSV = `income,debt,group,default
100,5,0,true
50,20,1,false
80,10,0,yes
20,30,1,0
`

func TestLoadCSVClassification(t *testing.T) {
	ds, err := LoadCSV(strings.NewReader(classificationCSV), CSVSchema{
		Task:      Classification,
		Outcome:   "default",
		Protected: []string{"group"},
		Name:      "loans",
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rows() != 4 || ds.Cols() != 3 {
		t.Fatalf("dims = %d×%d, want 4×3", ds.Rows(), ds.Cols())
	}
	if ds.Name != "loans" {
		t.Fatalf("name = %q", ds.Name)
	}
	wantLabels := []bool{true, false, true, false}
	for i, w := range wantLabels {
		if ds.Label[i] != w {
			t.Fatalf("label[%d] = %v, want %v", i, ds.Label[i], w)
		}
	}
	wantProt := []bool{false, true, false, true}
	for i, w := range wantProt {
		if ds.Protected[i] != w {
			t.Fatalf("protected[%d] = %v, want %v", i, ds.Protected[i], w)
		}
	}
	if len(ds.ProtectedCols) != 1 || ds.ProtectedCols[0] != 2 {
		t.Fatalf("protected cols = %v, want [2]", ds.ProtectedCols)
	}
	if ds.FeatureNames[0] != "income" || ds.FeatureNames[2] != "group" {
		t.Fatalf("feature names = %v", ds.FeatureNames)
	}
}

const rankingCSV = `quality,host,score,q
1,0,0.3,a
2,1,0.7,a
3,0,0.9,b
4,1,0.2,b
`

func TestLoadCSVRanking(t *testing.T) {
	ds, err := LoadCSV(strings.NewReader(rankingCSV), CSVSchema{
		Task:      Ranking,
		Outcome:   "score",
		Protected: []string{"host"},
		Query:     "q",
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Task != Ranking || ds.Label != nil {
		t.Fatal("expected a ranking dataset")
	}
	if ds.Score[1] != 0.7 {
		t.Fatalf("score[1] = %v", ds.Score[1])
	}
	if len(ds.Queries) != 2 {
		t.Fatalf("queries = %d, want 2", len(ds.Queries))
	}
	if ds.Queries[0].Name != "a" || len(ds.Queries[0].Rows) != 2 {
		t.Fatalf("query a = %+v", ds.Queries[0])
	}
	if ds.Cols() != 2 {
		t.Fatalf("cols = %d, want 2 (query column excluded)", ds.Cols())
	}
	if ds.Name != "csv" {
		t.Fatalf("default name = %q", ds.Name)
	}
}

func TestLoadCSVStandardises(t *testing.T) {
	ds, err := LoadCSV(strings.NewReader(classificationCSV), CSVSchema{
		Task: Classification, Outcome: "default",
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < ds.Rows(); i++ {
		sum += ds.X.At(i, 0)
	}
	if sum > 1e-9 || sum < -1e-9 {
		t.Fatalf("column mean = %v, want 0 after standardisation", sum/4)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	cases := []struct {
		name   string
		csv    string
		schema CSVSchema
	}{
		{"missing outcome name", classificationCSV, CSVSchema{Task: Classification}},
		{"unknown outcome", classificationCSV, CSVSchema{Task: Classification, Outcome: "nope"}},
		{"unknown protected", classificationCSV, CSVSchema{Task: Classification, Outcome: "default", Protected: []string{"nope"}}},
		{"protected equals outcome", classificationCSV, CSVSchema{Task: Classification, Outcome: "default", Protected: []string{"default"}}},
		{"no data rows", "a,b\n", CSVSchema{Task: Classification, Outcome: "b"}},
		{"bad numeric", "a,l\nxx,true\n", CSVSchema{Task: Classification, Outcome: "l"}},
		{"bad label", "a,l\n1,maybe\n", CSVSchema{Task: Classification, Outcome: "l"}},
		{"unknown query", rankingCSV, CSVSchema{Task: Ranking, Outcome: "score", Query: "nope"}},
		{"only outcome column", "l\ntrue\n", CSVSchema{Task: Classification, Outcome: "l"}},
		{"NaN feature", "a,l\nNaN,true\n", CSVSchema{Task: Classification, Outcome: "l"}},
		{"Inf feature", "a,l\n+Inf,true\n", CSVSchema{Task: Classification, Outcome: "l"}},
		{"negative Inf feature", "a,l\n-inf,true\n", CSVSchema{Task: Classification, Outcome: "l"}},
		{"NaN score outcome", "a,s\n1,NaN\n", CSVSchema{Task: Ranking, Outcome: "s"}},
		{"ragged short row", "a,b,l\n1,2,true\n1,true\n", CSVSchema{Task: Classification, Outcome: "l"}},
		{"ragged long row", "a,b,l\n1,2,true\n1,2,3,true\n", CSVSchema{Task: Classification, Outcome: "l"}},
		{"ambiguous protected", "a,a,l\n1,0,true\n", CSVSchema{Task: Classification, Outcome: "l", Protected: []string{"a"}}},
		{"ambiguous outcome", "a,l,l\n1,true,false\n", CSVSchema{Task: Classification, Outcome: "l"}},
		{"ambiguous query", "a,s,q,q\n1,0.5,x,y\n", CSVSchema{Task: Ranking, Outcome: "s", Query: "q"}},
		{"ambiguous feature", "a,a,l\n1,0,true\n", CSVSchema{Task: Classification, Outcome: "l"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadCSV(strings.NewReader(tc.csv), tc.schema); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// TestLoadCSVErrorsCarryRowNumbers: a reported defect must name the
// 1-based CSV line that carried it, so multi-thousand-row files are
// debuggable.
func TestLoadCSVErrorsCarryRowNumbers(t *testing.T) {
	cases := []struct {
		name string
		csv  string
		want string
	}{
		{"ragged", "a,l\n1,true\n1\n", "row 3"},
		{"non-finite", "a,l\n1,true\nNaN,true\n", "row 3"},
		{"bad outcome", "a,l\n1,true\n1,maybe\n", "row 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadCSV(strings.NewReader(tc.csv), CSVSchema{Task: Classification, Outcome: "l"})
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

func TestLoadCSVRoundTripWithSimulator(t *testing.T) {
	// Integration: a dataset exported in datagen's format loads back with
	// matching metadata. Build a tiny CSV in the same layout by hand.
	csv := "f1,f2,prot,label,protected_group\n" +
		"1,2,0,true,false\n" +
		"3,4,1,false,true\n" +
		"5,6,0,true,false\n"
	ds, err := LoadCSV(strings.NewReader(csv), CSVSchema{
		Task:      Classification,
		Outcome:   "label",
		Protected: []string{"prot"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// protected_group becomes a redundant numeric feature — fine; the
	// flags derive from the declared protected column.
	if ds.Cols() != 4 {
		t.Fatalf("cols = %d, want 4", ds.Cols())
	}
	if !ds.Protected[1] || ds.Protected[0] {
		t.Fatal("protected flags wrong")
	}
}
