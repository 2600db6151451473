package checkpoint_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
)

// goldenStateSHA256 is the sha256 of Encode(sampleState()). Round-trip
// tests only compare an encoder with the decoder of the same build; this
// constant catches a framing or payload change that would orphan every
// snapshot already on disk. Change it only together with the magic's
// version digit.
const goldenStateSHA256 = "42c60c860e2bedbfacecb9b251e94d39a3525f74b00ee159874d4ce10f7efd6a"

func TestEncodeGolden(t *testing.T) {
	data, err := checkpoint.Encode(sampleState())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != goldenStateSHA256 {
		t.Fatalf("snapshot bytes changed: sha256 %s, pinned %s", got, goldenStateSHA256)
	}
}

// legacyFixture is a snapshot written by an older encoder that also
// recorded the iterate of every restart still in flight, under the
// "in_progress" key: sampleState() plus restart 1 at iteration 5.
var legacyFixture = filepath.Join("testdata", "v1-in-progress.ckpt")

// legacyFixtureSHA256 pins the fixture's bytes, so the test below
// keeps checking what such an encoder wrote.
const legacyFixtureSHA256 = "e13443d26c860da1bcac56fdd4e681977c2f26824400cff8e0f6f912897e11b8"

// TestDecodeAcceptsLegacySnapshot checks that a snapshot carrying
// "in_progress" still decodes, to exactly the completed restarts it
// recorded, so a run killed under the older encoder resumes here.
func TestDecodeAcceptsLegacySnapshot(t *testing.T) {
	data, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != legacyFixtureSHA256 {
		t.Fatalf("fixture bytes changed: sha256 %s, pinned %s", got, legacyFixtureSHA256)
	}
	got, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	assertStatesEqual(t, got, sampleState())
}
