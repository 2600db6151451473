// Package ingest turns raw CSV streams into validated, numerically
// encoded, CRC-framed shard files that training can trust. It is the dirty-data
// counterpart of internal/checkpoint: the checkpoint package makes a fit
// survive crashes, this package makes the *data* survive crashes and
// malformed inputs.
//
// A bounded-memory reader parses rows incrementally, validates each one
// against a Schema (arity, numeric parse, finite values), quarantines bad rows with row-numbered reasons
// under a configurable error budget, and appends good rows to
// fixed-size shards. Shards, the manifest and the quarantine log are
// durable files in the sense of internal/checkpoint: they are written
// with its crash-safe checkpoint.WriteFileAtomic, and shards and the
// manifest carry its checkpoint.Frame envelope (magic + length +
// CRC-64/ECMA) under their own magics. Every shard carries the cumulative
// row counters and per-column Welford moments of the whole prefix of
// the input it closes, so a killed-and-restarted ingest resumes from
// the last durable shard and produces a shard set bit-identical to an
// uninterrupted run.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/stats"
)

// shardMagic identifies a shard file and pins the framing version.
const shardMagic = "IFAIRSHRD1\n"

// manifestMagic identifies the shard-store manifest file.
const manifestMagic = "IFAIRMANI1\n"

// ErrCorrupt reports a shard or manifest file that cannot be trusted:
// wrong magic, truncated frame, checksum mismatch or an inconsistent
// payload. Readers match it with errors.Is; the ingest pipeline responds
// by re-encoding the shard from its source rows, never by training on it.
var ErrCorrupt = errors.New("ingest: corrupt shard")

// corruptf wraps ErrCorrupt with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Shard is the decoded content of one shard file: a block of encoded
// rows plus the cumulative state of the ingest up to and including this
// shard. Shards are self-describing — resuming an interrupted ingest
// needs only the last durable shard, not a replay of its predecessors.
type Shard struct {
	// Index is the shard's position in the store, starting at 0.
	Index int
	// Cols is the encoded feature width.
	Cols int
	// Data holds the encoded rows, row-major, len = Rows()*Cols.
	Data []float64
	// Labels holds one boolean outcome per row when the schema declared
	// a label outcome; nil otherwise.
	Labels []bool
	// Scores holds one numeric outcome per row when the schema declared
	// a score outcome; nil otherwise.
	Scores []float64
	// Protected flags each row's membership in the protected group
	// (derived from the first protected encoded column).
	Protected []bool
	// GoodRows, BadRows and InputRows are cumulative counts over every
	// input row consumed through the end of this shard. The invariant
	// InputRows == GoodRows + BadRows lets a resume skip exactly the
	// consumed prefix of the input without re-validating it.
	GoodRows  uint64
	BadRows   uint64
	InputRows uint64
	// Moments is the cumulative per-column Welford state over all
	// GoodRows encoded rows, used for streaming standardisation.
	Moments []stats.Welford
}

// Rows returns the number of encoded rows in the shard.
func (s *Shard) Rows() int {
	if s.Cols == 0 {
		return 0
	}
	return len(s.Data) / s.Cols
}

const shardFlagLabel = 1 << 0
const shardFlagScore = 1 << 1

// EncodeShard frames the shard as magic || length || payload || CRC-64.
// The payload is a fixed-layout binary block (floats as IEEE-754 bits,
// big-endian), so encoding is deterministic: the same shard content
// always yields the same bytes — the property the crash-resume tests
// byte-compare against.
func EncodeShard(s *Shard) ([]byte, error) {
	rows := s.Rows()
	if s.Cols <= 0 {
		return nil, fmt.Errorf("ingest: encode shard %d: non-positive cols %d", s.Index, s.Cols)
	}
	if len(s.Data) != rows*s.Cols {
		return nil, fmt.Errorf("ingest: encode shard %d: data length %d is not a multiple of cols %d", s.Index, len(s.Data), s.Cols)
	}
	if len(s.Protected) != rows {
		return nil, fmt.Errorf("ingest: encode shard %d: %d protected flags for %d rows", s.Index, len(s.Protected), rows)
	}
	if s.Labels != nil && len(s.Labels) != rows {
		return nil, fmt.Errorf("ingest: encode shard %d: %d labels for %d rows", s.Index, len(s.Labels), rows)
	}
	if s.Scores != nil && len(s.Scores) != rows {
		return nil, fmt.Errorf("ingest: encode shard %d: %d scores for %d rows", s.Index, len(s.Scores), rows)
	}
	if len(s.Moments) != s.Cols {
		return nil, fmt.Errorf("ingest: encode shard %d: %d moment columns for %d cols", s.Index, len(s.Moments), s.Cols)
	}
	if s.InputRows != s.GoodRows+s.BadRows {
		return nil, fmt.Errorf("ingest: encode shard %d: counters inconsistent: input %d != good %d + bad %d", s.Index, s.InputRows, s.GoodRows, s.BadRows)
	}
	for _, v := range s.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("ingest: encode shard %d: non-finite value in data", s.Index)
		}
	}

	var flags byte
	if s.Labels != nil {
		flags |= shardFlagLabel
	}
	if s.Scores != nil {
		flags |= shardFlagScore
	}
	n := 4 + 4 + 4 + 1 + 24 + len(s.Moments)*24 + len(s.Data)*8 + len(s.Protected)
	if s.Labels != nil {
		n += rows
	}
	if s.Scores != nil {
		n += rows * 8
	}
	payload := make([]byte, 0, n)
	payload = binary.BigEndian.AppendUint32(payload, uint32(s.Index))
	payload = binary.BigEndian.AppendUint32(payload, uint32(s.Cols))
	payload = binary.BigEndian.AppendUint32(payload, uint32(rows))
	payload = append(payload, flags)
	payload = binary.BigEndian.AppendUint64(payload, s.GoodRows)
	payload = binary.BigEndian.AppendUint64(payload, s.BadRows)
	payload = binary.BigEndian.AppendUint64(payload, s.InputRows)
	for _, w := range s.Moments {
		payload = binary.BigEndian.AppendUint64(payload, uint64(w.N))
		payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(w.M))
		payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(w.S))
	}
	for _, v := range s.Data {
		payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(v))
	}
	if s.Labels != nil {
		for _, b := range s.Labels {
			payload = append(payload, boolByte(b))
		}
	}
	if s.Scores != nil {
		for _, v := range s.Scores {
			payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(v))
		}
	}
	for _, b := range s.Protected {
		payload = append(payload, boolByte(b))
	}
	return checkpoint.Frame(shardMagic, payload), nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// DecodeShard verifies the frame and checksum and unmarshals the payload.
// Any truncation, bit flip or internal inconsistency yields an error
// wrapping ErrCorrupt — never a panic and never a silently wrong Shard.
func DecodeShard(data []byte) (*Shard, error) {
	payload, err := checkpoint.Unframe(data, shardMagic)
	if err != nil {
		return nil, corruptf("shard frame: %v", err)
	}
	r := payloadReader{b: payload}
	idx := r.uint32()
	cols := r.uint32()
	rows := r.uint32()
	flags := r.byte()
	good := r.uint64()
	bad := r.uint64()
	input := r.uint64()
	if r.err != nil {
		return nil, corruptf("shard header truncated")
	}
	// A checksum collision could still deliver absurd dimensions; bound
	// them before allocating.
	if cols == 0 || cols > 1<<20 {
		return nil, corruptf("shard has implausible column count %d", cols)
	}
	if flags&^(shardFlagLabel|shardFlagScore) != 0 {
		return nil, corruptf("shard has unknown flags %#x", flags)
	}
	if input != good+bad {
		return nil, corruptf("shard counters inconsistent: input %d != good %d + bad %d", input, good, bad)
	}
	if uint64(rows) > good {
		return nil, corruptf("shard holds %d rows but only %d cumulative good rows", rows, good)
	}
	want := int(cols)*24 + int(rows)*int(cols)*8 + int(rows)
	if flags&shardFlagLabel != 0 {
		want += int(rows)
	}
	if flags&shardFlagScore != 0 {
		want += int(rows) * 8
	}
	if len(r.b)-r.off != want {
		return nil, corruptf("shard body is %d bytes, layout needs %d", len(r.b)-r.off, want)
	}
	s := &Shard{
		Index:     int(idx),
		Cols:      int(cols),
		GoodRows:  good,
		BadRows:   bad,
		InputRows: input,
		Moments:   make([]stats.Welford, cols),
	}
	for i := range s.Moments {
		n := int64(r.uint64())
		m := math.Float64frombits(r.uint64())
		sq := math.Float64frombits(r.uint64())
		if n < 0 || n != int64(good) {
			return nil, corruptf("shard moment column %d has count %d, want %d", i, n, good)
		}
		if math.IsNaN(m) || math.IsInf(m, 0) || math.IsNaN(sq) || math.IsInf(sq, 0) || sq < 0 {
			return nil, corruptf("shard moment column %d is non-finite or negative", i)
		}
		s.Moments[i] = stats.Welford{N: n, M: m, S: sq}
	}
	s.Data = make([]float64, int(rows)*int(cols))
	for i := range s.Data {
		v := math.Float64frombits(r.uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, corruptf("shard row %d has a non-finite value", i/int(cols))
		}
		s.Data[i] = v
	}
	if flags&shardFlagLabel != 0 {
		s.Labels = make([]bool, rows)
		for i := range s.Labels {
			b := r.byte()
			if b > 1 {
				return nil, corruptf("shard label %d is not a boolean byte", i)
			}
			s.Labels[i] = b == 1
		}
	}
	if flags&shardFlagScore != 0 {
		s.Scores = make([]float64, rows)
		for i := range s.Scores {
			v := math.Float64frombits(r.uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, corruptf("shard score %d is non-finite", i)
			}
			s.Scores[i] = v
		}
	}
	s.Protected = make([]bool, rows)
	for i := range s.Protected {
		b := r.byte()
		if b > 1 {
			return nil, corruptf("shard protected flag %d is not a boolean byte", i)
		}
		s.Protected[i] = b == 1
	}
	if r.err != nil || r.off != len(r.b) {
		return nil, corruptf("shard body truncated")
	}
	return s, nil
}

// payloadReader is a bounds-checked sequential reader over a payload;
// reads past the end set err instead of panicking, so decoders can do a
// single error check per section.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (r *payloadReader) uint32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.err = errors.New("short read")
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *payloadReader) uint64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.err = errors.New("short read")
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *payloadReader) byte() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.err = errors.New("short read")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}
