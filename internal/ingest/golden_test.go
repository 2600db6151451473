package ingest_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/ingest"
	"repro/internal/stats"
)

// The sha256 of the fixed shard and manifest below, as the store format
// was first pinned. Round-trip tests only compare an encoder with the
// decoder of the same build; these constants catch a framing or layout
// change that would orphan every shard store already on disk. Change one
// only together with the matching magic's version digit.
const (
	goldenShardSHA256    = "1bd3b3ab49ccbfc2afebf2b137a61246356d2681bd60f18255b6a45d46c1ee29"
	goldenManifestSHA256 = "b7b71a565f84b9f3aa1a43212347fb30e32f7ce34463e2e3b8eaf2e57ca3df3f"
)

func goldenShard() *ingest.Shard {
	return &ingest.Shard{
		Index:     1,
		Cols:      2,
		Data:      []float64{0.5, -1.25, 3, 0},
		Scores:    []float64{0.1, -7},
		Protected: []bool{false, true},
		GoodRows:  6,
		BadRows:   1,
		InputRows: 7,
		Moments:   []stats.Welford{{N: 6, M: 0.5, S: 1.25}, {N: 6, M: -1, S: 0.75}},
	}
}

func goldenManifest() *ingest.Manifest {
	return &ingest.Manifest{
		SchemaSum:     "0123456789abcdef",
		Cols:          2,
		FeatureNames:  []string{"age", "sex=f"},
		ProtectedCols: []int{1},
		ShardRows:     4,
		HasScore:      true,
		Shards: []ingest.ShardInfo{
			{Index: 0, Rows: 4, CRC: "00000000deadbeef"},
			{Index: 1, Rows: 2, CRC: "ffffffffffffffff"},
		},
		GoodRows:  6,
		BadRows:   1,
		InputRows: 7,
		Moments:   []stats.Welford{{N: 6, M: 0.5, S: 1.25}, {N: 6, M: -1, S: 0.75}},
		Complete:  true,
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestShardManifestGolden(t *testing.T) {
	shard, err := ingest.EncodeShard(goldenShard())
	if err != nil {
		t.Fatalf("EncodeShard: %v", err)
	}
	if got := sha256Hex(shard); got != goldenShardSHA256 {
		t.Errorf("shard bytes changed: sha256 %s, pinned %s", got, goldenShardSHA256)
	}
	man, err := ingest.EncodeManifest(goldenManifest())
	if err != nil {
		t.Fatalf("EncodeManifest: %v", err)
	}
	if got := sha256Hex(man); got != goldenManifestSHA256 {
		t.Errorf("manifest bytes changed: sha256 %s, pinned %s", got, goldenManifestSHA256)
	}
}
