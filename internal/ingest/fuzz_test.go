package ingest_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/ingest"
	"repro/internal/stats"
)

// FuzzShardDecode asserts the shard decoder's safety contract on
// arbitrary bytes, mirroring FuzzCheckpointDecode: it never panics, and
// anything it rejects is reported as ErrCorrupt (so a reader can always
// treat the shard as untrusted and trigger re-encoding). Inputs it
// accepts must re-encode to a decodable, byte-identical frame.
func FuzzShardDecode(f *testing.F) {
	sh := &ingest.Shard{
		Index:     1,
		Cols:      2,
		Data:      []float64{0.5, -1.25, 3, 0},
		Labels:    []bool{true, false},
		Protected: []bool{false, true},
		GoodRows:  6,
		BadRows:   1,
		InputRows: 7,
		Moments:   []stats.Welford{{N: 6, M: 0.5, S: 1.25}, {N: 6, M: -1, S: 0.75}},
	}
	valid, err := ingest.EncodeShard(sh)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("IFAIRSHRD1\n"))
	f.Add(faultinject.Truncate(valid, len(valid)/2))
	f.Add(faultinject.FlipBit(valid, len(valid)*4))
	f.Add(faultinject.FlipBit(valid, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ingest.DecodeShard(data)
		if err != nil {
			if !errors.Is(err, ingest.ErrCorrupt) {
				t.Fatalf("DecodeShard error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		// Accepted input: the shard must survive a re-encode round trip,
		// and — because the binary layout is canonical — reproduce the
		// accepted frame exactly.
		data2, err := ingest.EncodeShard(got)
		if err != nil {
			t.Fatalf("re-Encode of accepted shard failed: %v", err)
		}
		if _, err := ingest.DecodeShard(data2); err != nil {
			t.Fatalf("re-Decode of accepted shard failed: %v", err)
		}
		if string(data) != string(data2) {
			t.Fatalf("accepted frame is not canonical: re-encode changed bytes")
		}
	})
}

// FuzzManifestDecode asserts the manifest decoder's contract on
// arbitrary bytes. The manifest is the ingest's commit point, so a
// reader must be able to treat any file it rejects as untrusted: the
// decoder never panics, every rejection wraps ErrCorrupt, and an
// accepted manifest re-encodes to a frame that decodes to an equal
// Manifest. With framed set, the input is a payload wrapped in a valid
// frame, which lets the fuzzer reach the JSON and consistency checks
// behind the checksum.
func FuzzManifestDecode(f *testing.F) {
	valid, err := ingest.EncodeManifest(goldenManifest())
	if err != nil {
		f.Fatal(err)
	}
	payload, err := checkpoint.Unframe(valid, "IFAIRMANI1\n")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, false)
	f.Add([]byte{}, false)
	f.Add([]byte("IFAIRMANI1\n"), false)
	f.Add(faultinject.Truncate(valid, len(valid)/2), false)
	f.Add(faultinject.FlipBit(valid, len(valid)*4), false)
	f.Add(payload, true)
	f.Add([]byte(`{"cols":1,"feature_names":["a"],"shard_rows":1,"shards":[],"moments":[{"n":0}]}`), true)
	f.Add([]byte(`{"cols":1}`), true)
	f.Add([]byte(`not json`), true)

	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		if framed {
			data = checkpoint.Frame("IFAIRMANI1\n", data)
		}
		got, err := ingest.DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, ingest.ErrCorrupt) {
				t.Fatalf("DecodeManifest error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		data2, err := ingest.EncodeManifest(got)
		if err != nil {
			t.Fatalf("re-Encode of accepted manifest failed: %v", err)
		}
		got2, err := ingest.DecodeManifest(data2)
		if err != nil {
			t.Fatalf("re-Decode of accepted manifest failed: %v", err)
		}
		if !reflect.DeepEqual(got, got2) {
			t.Fatalf("manifest changed across a re-encode:\n  first  %+v\n  second %+v", got, got2)
		}
	})
}

// FuzzEncodeRow asserts the row validator's contract on arbitrary
// headers and rows: Resolve and EncodeRow never panic, and a row that
// EncodeRow accepts fills all Cols() encoded values with finite numbers
// (and yields a finite score when the outcome is one).
func FuzzEncodeRow(f *testing.F) {
	f.Add("age,group,income,label", "41,1,50000,true", "label", true, false)
	f.Add("age,group,income,label", "41,C,50000,true", "label", true, false)
	f.Add("a,b,c", "1,yes,-2e3", "", false, false)
	f.Add("a,b,s", "NaN,1,+Inf", "s", false, true)
	f.Add("a,a,l", "1,2,maybe", "l", true, false)
	f.Add("x", "", "", false, false)
	f.Fuzz(func(t *testing.T, header, row, outcome string, explicit, score bool) {
		hdr := strings.Split(header, ",")
		s := ingest.Schema{ProtectedIndex: []int{0}, Outcome: outcome, OutcomeScore: score}
		if explicit {
			// Declare every non-outcome column; the first one is
			// protected.
			s.Features = []ingest.Column{}
			for i, h := range hdr {
				c := ingest.Column{Name: strings.TrimSpace(h), Protected: i == 0}
				if c.Name == outcome {
					continue
				}
				s.Features = append(s.Features, c)
			}
		}
		lay, err := s.Resolve(hdr)
		if err != nil {
			return
		}
		if len(lay.Names()) != lay.Cols() {
			t.Fatalf("%d names for %d columns", len(lay.Names()), lay.Cols())
		}
		for _, c := range lay.ProtectedCols() {
			if c < 0 || c >= lay.Cols() {
				t.Fatalf("protected column %d out of range for %d columns", c, lay.Cols())
			}
		}
		dst := make([]float64, lay.Cols())
		for j := range dst {
			dst[j] = math.NaN()
		}
		_, sc, _, err := lay.EncodeRow(strings.Split(row, ","), dst)
		if err != nil {
			return
		}
		for j, v := range dst {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted row encodes column %d as %v", j, v)
			}
		}
		if math.IsNaN(sc) || math.IsInf(sc, 0) {
			t.Fatalf("accepted row has score %v", sc)
		}
	})
}
