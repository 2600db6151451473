// Package checkpoint makes training durable: it persists versioned,
// checksummed snapshots of multi-restart optimisation state so a fit
// killed by a crash, OOM or preemption resumes instead of starting over.
//
// A snapshot records which random restarts have finished: their final
// parameters, loss and seed lineage. Because every restart is a pure
// function of (base seed, restart index) — see optimize.RestartSeed — a
// resumed fit replays finished restarts from the snapshot verbatim and
// re-runs unfinished ones from their derived seeds, so the resumed model
// is bit-identical to the one an uninterrupted run would have produced.
// A restart still in flight therefore leaves nothing worth recording.
//
// The package also owns the on-disk rules of every durable file in this
// module — training snapshots, ingest shards and manifests, synced model
// files, drift profiles and saved models. Frame and Unframe are the one
// envelope (magic header, explicit payload length, CRC-64 checksum), so
// a torn, truncated or bit-flipped file is detected at load time and the
// loader falls back to a previous good copy instead of crashing or
// resuming from garbage. WriteFileAtomic is the one crash-safe publish
// (temp file + fsync + rename + directory fsync), and FS is the
// filesystem seam fault-injection tests substitute under both.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// magic identifies a snapshot file and pins the framing version; bumping
// the trailing digit invalidates every older file.
const magic = "IFAIRCKPT1\n"

// ErrCorrupt reports a snapshot file that cannot be trusted: wrong magic,
// truncated frame, checksum mismatch or an inconsistent payload. Loaders
// match it with errors.Is and fall back to an older snapshot.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// State is the decoded content of one snapshot: the identity of the
// training run plus everything needed to resume it.
type State struct {
	// Seed is the base RNG seed of the run; restart r trains from
	// optimize.RestartSeed(Seed, r).
	Seed int64 `json:"seed"`
	// Restarts is the total restart count of the run.
	Restarts int `json:"restarts"`
	// Fingerprint identifies the training problem (options + data). A
	// snapshot whose fingerprint does not match the resuming run is
	// rejected rather than silently mixed into a different problem.
	Fingerprint string `json:"fingerprint"`
	// Completed holds one record per finished restart, sorted by index.
	// Snapshots written by older builds may also carry an "in_progress"
	// list of in-flight iterates; Decode ignores it.
	Completed []Restart `json:"completed,omitempty"`
}

// Restart is the durable outcome of one finished random restart.
type Restart struct {
	// Index is the restart's position in [0, Restarts).
	Index int `json:"index"`
	// Seed is the derived RNG seed the restart trained from (the seed
	// lineage: optimize.RestartSeed(base, Index)).
	Seed int64 `json:"seed"`
	// Iterations is how many optimizer iterations the restart took.
	Iterations int `json:"iterations"`
	// Loss is the final objective value. Omitted for failed restarts
	// (JSON cannot carry the NaN a failed restart reports).
	Loss float64 `json:"loss"`
	// X is the final packed parameter vector of a successful restart.
	X []float64 `json:"x,omitempty"`
	// Failed marks a restart whose optimizer returned an error; Error
	// carries the message. Failed restarts are replayed as failures on
	// resume — deterministic training would fail them identically.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
}

// corruptf wraps ErrCorrupt with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Encode frames the state as magic || length || JSON payload || CRC-64.
// Non-finite floats cannot cross JSON, so failed restarts must carry
// Loss 0 (Manager enforces this) and every X value must be finite.
func Encode(s *State) ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode snapshot: %w", err)
	}
	return Frame(magic, payload), nil
}

// Decode verifies the frame and checksum and unmarshals the payload. Any
// truncation, bit flip or inconsistency yields an error wrapping
// ErrCorrupt — never a panic and never a silently wrong State.
func Decode(data []byte) (*State, error) {
	payload, err := Unframe(data, magic)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	var s State
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, corruptf("payload is not a snapshot: %v", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate rejects payloads that are well-formed JSON but not a coherent
// snapshot (a checksum collision or an encoder from the future).
func (s *State) validate() error {
	if s.Restarts < 0 {
		return corruptf("negative restart count %d", s.Restarts)
	}
	seen := make(map[int]bool, len(s.Completed))
	for _, r := range s.Completed {
		if r.Index < 0 || (s.Restarts > 0 && r.Index >= s.Restarts) {
			return corruptf("completed restart index %d out of range [0, %d)", r.Index, s.Restarts)
		}
		if seen[r.Index] {
			return corruptf("duplicate completed restart %d", r.Index)
		}
		seen[r.Index] = true
		if r.Failed {
			continue
		}
		if math.IsNaN(r.Loss) || math.IsInf(r.Loss, 0) {
			return corruptf("restart %d has non-finite loss", r.Index)
		}
		for _, v := range r.X {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return corruptf("restart %d has non-finite parameters", r.Index)
			}
		}
	}
	return nil
}
