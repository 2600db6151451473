package checkpoint_test

import (
	"errors"
	"math"
	"os"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
)

// FuzzCheckpointDecode asserts the decoder's safety contract on arbitrary
// bytes: it never panics, and anything it rejects is reported as
// ErrCorrupt (so callers can always fall back to an older snapshot).
// Inputs it accepts must re-encode to a decodable state.
func FuzzCheckpointDecode(f *testing.F) {
	valid, err := checkpoint.Encode(&checkpoint.State{
		Seed: 7, Restarts: 2, Fingerprint: "fp",
		Completed: []checkpoint.Restart{
			{Index: 0, Seed: 7, Iterations: 3, Loss: 1.5, X: []float64{0.25, -1, math.SmallestNonzeroFloat64}},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	legacy, err := os.ReadFile(legacyFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add([]byte{})
	f.Add([]byte("IFAIRCKPT1\n"))
	f.Add(faultinject.Truncate(valid, len(valid)/2))
	f.Add(faultinject.FlipBit(valid, len(valid)*4))
	f.Add(faultinject.FlipBit(valid, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := checkpoint.Decode(data)
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("Decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		// Accepted input: the state must survive a re-encode round trip.
		data2, err := checkpoint.Encode(st)
		if err != nil {
			t.Fatalf("re-Encode of accepted state failed: %v", err)
		}
		if _, err := checkpoint.Decode(data2); err != nil {
			t.Fatalf("re-Decode of accepted state failed: %v", err)
		}
	})
}
