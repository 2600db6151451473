package checkpoint_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/checkpoint"
)

// goldenStateSHA256 is the sha256 of Encode(sampleState()) as the
// snapshot format was first pinned. Round-trip tests only compare an
// encoder with the decoder of the same build; this constant catches a
// framing or payload change that would orphan every snapshot already on
// disk. Change it only together with the magic's version digit.
const goldenStateSHA256 = "e13443d26c860da1bcac56fdd4e681977c2f26824400cff8e0f6f912897e11b8"

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
