package faultinject

import (
	"fmt"
	"io"
	"time"

	"repro/internal/optimize"
)

// ErrDisconnect is the injected mid-body client disconnect; it wraps
// ErrInjected so tests can match either the specific or the generic
// fault.
var ErrDisconnect = fmt.Errorf("%w: client disconnected mid-body", ErrInjected)

// SlowReader drips an underlying reader out in small chunks with a pause
// before each one — a slow or congested client uploading a request body.
// It is the HTTP-chaos analogue of the FS fuses: fully deterministic,
// no randomness of its own.
type SlowReader struct {
	// R is the wrapped reader.
	R io.Reader
	// Chunk is the per-Read byte cap (minimum 1).
	Chunk int
	// Delay is the pause before each chunk.
	Delay time.Duration
}

func (s *SlowReader) Read(p []byte) (int, error) {
	if s.Delay > 0 {
		time.Sleep(s.Delay)
	}
	chunk := s.Chunk
	if chunk < 1 {
		chunk = 1
	}
	if len(p) > chunk {
		p = p[:chunk]
	}
	return s.R.Read(p)
}

// DisconnectReader yields the first N bytes of the wrapped reader and
// then fails with ErrDisconnect — a client whose connection drops
// mid-body. The server sees a read error on the request body, the
// canonical trigger for half-written request handling.
type DisconnectReader struct {
	// R is the wrapped reader.
	R io.Reader
	// N is how many bytes flow before the disconnect.
	N int

	read int
}

func (d *DisconnectReader) Read(p []byte) (int, error) {
	if d.read >= d.N {
		return 0, ErrDisconnect
	}
	if rem := d.N - d.read; len(p) > rem {
		p = p[:rem]
	}
	n, err := d.R.Read(p)
	d.read += n
	if err == io.EOF && d.read >= d.N {
		// The payload ran out exactly at the cut point; still surface
		// the disconnect rather than a clean EOF.
		err = ErrDisconnect
	}
	return n, err
}

// Window is one phase of a generic event schedule: some condition (a
// drift injection, a corrupted-canary deploy) is active for Len ticks
// starting at Start.
type Window struct {
	// Start is the tick at which the window opens.
	Start int
	// Len is the window duration in ticks (≥ 1).
	Len int
}

// Windows derives n non-overlapping event windows across [0, horizon)
// ticks from a seed, with the same splitmix64 mixing as Schedule. Window
// i lives inside [i·horizon/n, (i+1)·horizon/n), so events never overlap
// and the schedule replays exactly from the seed. Each window lasts
// between minLen and maxLen ticks. The rollout chaos soak uses one
// schedule for its drift injection and another (different seed) for the
// corrupted-canary deploy.
func Windows(seed int64, n, horizon, minLen, maxLen int) []Window {
	if n < 1 || horizon < 1 {
		return nil
	}
	if minLen < 1 {
		minLen = 1
	}
	if maxLen < minLen {
		maxLen = minLen
	}
	slice := horizon / n
	if slice < 1 {
		slice = 1
	}
	out := make([]Window, 0, n)
	for i := 0; i < n; i++ {
		z := uint64(optimize.RestartSeed(seed, i+1))
		length := minLen + int(z%uint64(maxLen-minLen+1))
		if length > slice {
			length = slice
		}
		slack := slice - length
		start := i * slice
		if slack > 0 {
			start += int((z >> 16) % uint64(slack+1))
		}
		out = append(out, Window{Start: start, Len: length})
	}
	return out
}

// ActiveAt reports whether the tick falls inside any window.
func ActiveAt(windows []Window, tick int) bool {
	for _, w := range windows {
		if tick >= w.Start && tick < w.Start+w.Len {
			return true
		}
	}
	return false
}
