package ifair

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/mat"
)

// modelJSON is the on-disk representation of a fitted model. The format is
// versioned so future changes stay backward compatible. P, TakeRoot and
// Kernel record the geometry; every model is written with p = 2, no root
// and the exp kernel, and DecodeModel refuses a file that names another.
type modelJSON struct {
	Version    int       `json:"version"`
	K          int       `json:"k"`
	N          int       `json:"n"`
	P          float64   `json:"p"`
	TakeRoot   bool      `json:"take_root"`
	Kernel     int       `json:"kernel,omitempty"`
	Alpha      []float64 `json:"alpha"`
	Prototypes []float64 `json:"prototypes"` // row-major K×N
	Loss       float64   `json:"loss"`
}

const modelFormatVersion = 1

// Encode writes the model as versioned JSON, so trained representations
// can be deployed without retraining (the paper's "train once, use for
// arbitrary downstream applications" story).
func (m *Model) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(modelJSON{
		Version:    modelFormatVersion,
		K:          m.K(),
		N:          m.Dims(),
		P:          m.P,
		Kernel:     int(m.Kernel),
		Alpha:      m.Alpha,
		Prototypes: m.Prototypes.Data(),
		Loss:       m.Loss,
	})
}

// DecodeModel reads a model previously written by Encode.
func DecodeModel(r io.Reader) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("ifair: decode model: %w", err)
	}
	if mj.Version != modelFormatVersion {
		return nil, fmt.Errorf("ifair: unsupported model format version %d (want %d)", mj.Version, modelFormatVersion)
	}
	if mj.K <= 0 || mj.N <= 0 {
		return nil, fmt.Errorf("ifair: invalid model dimensions K=%d N=%d", mj.K, mj.N)
	}
	if len(mj.Alpha) != mj.N {
		return nil, fmt.Errorf("ifair: alpha length %d does not match N=%d", len(mj.Alpha), mj.N)
	}
	if len(mj.Prototypes) != mj.K*mj.N {
		return nil, fmt.Errorf("ifair: prototype data length %d does not match K×N=%d", len(mj.Prototypes), mj.K*mj.N)
	}
	if mj.TakeRoot {
		return nil, fmt.Errorf("ifair: model field take_root=true is not supported: distances are rootless")
	}
	p := mj.P
	if p == 0 {
		p = 2
	}
	m := &Model{
		Prototypes: mat.NewDenseData(mj.K, mj.N, mj.Prototypes),
		Alpha:      mj.Alpha,
		P:          p,
		Kernel:     Kernel(mj.Kernel),
		Loss:       mj.Loss,
	}
	// Validate rejects the remaining inconsistencies a corrupt file can
	// carry: negative or non-finite weights, non-finite prototypes, and a
	// p or kernel other than the one geometry Forward computes.
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadModelFile reads and validates a model file written by Encode. It is
// the single source of truth for loading persisted models — the CLI and
// the serving registry both go through it.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := DecodeModel(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
