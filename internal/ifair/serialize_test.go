package ifair

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mat"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	model, x := fittedModel(t, 21)
	var buf bytes.Buffer
	if err := model.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equalish(got.Prototypes, model.Prototypes, 0) {
		t.Fatal("prototypes changed in round trip")
	}
	for i := range model.Alpha {
		if got.Alpha[i] != model.Alpha[i] {
			t.Fatal("alpha changed in round trip")
		}
	}
	if got.P != model.P || got.Kernel != model.Kernel || got.Loss != model.Loss {
		t.Fatal("scalar fields changed in round trip")
	}
	// The decoded model must transform identically.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		rec := make([]float64, model.Dims())
		for j := range rec {
			rec[j] = rng.NormFloat64()
		}
		a := mustTransformRow(t, model, rec)
		b := mustTransformRow(t, got, rec)
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("decoded model transforms differently")
			}
		}
	}
	_ = x
}

func TestDecodeModelRejectsGarbage(t *testing.T) {
	if _, err := DecodeModel(strings.NewReader("not json")); err == nil {
		t.Fatal("expected error for invalid JSON")
	}
}

func TestDecodeModelRejectsWrongVersion(t *testing.T) {
	r := strings.NewReader(`{"version": 99, "k": 1, "n": 1, "alpha": [1], "prototypes": [0]}`)
	if _, err := DecodeModel(r); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version error", err)
	}
}

func TestDecodeModelValidatesShapes(t *testing.T) {
	cases := map[string]string{
		"bad dims":          `{"version":1,"k":0,"n":1,"alpha":[1],"prototypes":[]}`,
		"negative k":        `{"version":1,"k":-2,"n":1,"alpha":[1],"prototypes":[0]}`,
		"negative n":        `{"version":1,"k":1,"n":-1,"alpha":[],"prototypes":[]}`,
		"alpha mismatch":    `{"version":1,"k":1,"n":2,"alpha":[1],"prototypes":[0,0]}`,
		"alpha too long":    `{"version":1,"k":1,"n":1,"alpha":[1,1],"prototypes":[0]}`,
		"proto mismatch":    `{"version":1,"k":2,"n":2,"alpha":[1,1],"prototypes":[0,0]}`,
		"negative weight":   `{"version":1,"k":1,"n":1,"alpha":[-1],"prototypes":[0]}`,
		"p below one":       `{"version":1,"k":1,"n":1,"p":0.5,"alpha":[1],"prototypes":[0]}`,
		"negative p":        `{"version":1,"k":1,"n":1,"p":-2,"alpha":[1],"prototypes":[0]}`,
		"missing version":   `{"k":1,"n":1,"alpha":[1],"prototypes":[0]}`,
		"negative kernel":   `{"version":1,"k":1,"n":1,"kernel":-1,"alpha":[1],"prototypes":[0]}`,
		"truncated payload": `{"version":1,"k":1,`,
	}
	for name, payload := range cases {
		if _, err := DecodeModel(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLoadModelFile(t *testing.T) {
	model, _ := fittedModel(t, 33)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	var buf bytes.Buffer
	if err := model.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != model.K() || got.Dims() != model.Dims() {
		t.Fatalf("loaded model is %d×%d, want %d×%d", got.K(), got.Dims(), model.K(), model.Dims())
	}
	if _, err := LoadModelFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1,"k":1,"n":2,"alpha":[1],"prototypes":[0,0]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(bad); err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Fatalf("err = %v, want decode error naming the file", err)
	}
}

func TestDecodeModelRejectsUnknownKernel(t *testing.T) {
	r := strings.NewReader(`{"version":1,"k":1,"n":1,"kernel":7,"alpha":[1],"prototypes":[0]}`)
	if _, err := DecodeModel(r); err == nil || !strings.Contains(err.Error(), "kernel") {
		t.Fatalf("err = %v, want kernel error", err)
	}
}

// TestDecodeModelRejectsOtherGeometry: a file saved with a distance
// exponent, root or kernel other than the one Forward computes must fail
// to load with an error naming the field, never be served with the wrong
// math.
func TestDecodeModelRejectsOtherGeometry(t *testing.T) {
	for _, tc := range []struct{ field, json string }{
		{"p", `"p":1.5`},
		{"p", `"p":3`},
		{"take_root", `"p":2,"take_root":true`},
		{"kernel", `"p":2,"kernel":1`},
	} {
		r := strings.NewReader(`{"version":1,"k":1,"n":1,` + tc.json + `,"alpha":[1],"prototypes":[0]}`)
		if _, err := DecodeModel(r); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want an error naming %q", tc.json, err, tc.field)
		}
	}
}

// goldenModelSHA256 is the sha256 of Encode(goldenModel()), pinned
// when the p, take_root and kernel options were removed from the model:
// Encode must keep writing those keys exactly as before, so files saved
// by older and newer builds stay byte-identical.
const goldenModelSHA256 = "85de1dfc059430c9e1906451123f638858dfe7bba417d7b830e66c4f64062ddb"

func goldenModel() *Model {
	return &Model{
		Prototypes: mat.NewDenseData(2, 3, []float64{0.5, -1.25, 2, 1e-3, 3.75, -0.125}),
		Alpha:      []float64{0.25, 1, 0.0625},
		P:          2,
		Kernel:     ExpKernel,
		Loss:       12.5,
	}
}

func TestEncodeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenModel().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenModelSHA256 {
		t.Fatalf("model bytes changed: sha256 %s, pinned %s\n%s", got, goldenModelSHA256, buf.String())
	}
}

func TestDecodeModelDefaultsPToTwo(t *testing.T) {
	r := strings.NewReader(`{"version":1,"k":1,"n":1,"alpha":[1],"prototypes":[0.5]}`)
	m, err := DecodeModel(r)
	if err != nil {
		t.Fatal(err)
	}
	if m.P != 2 {
		t.Fatalf("P = %v, want default 2", m.P)
	}
}
