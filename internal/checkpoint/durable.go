package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"path/filepath"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Checksum returns the CRC-64/ECMA of b: the checksum of every file
// frame, of the shard CRCs an ingest manifest records and of the model
// files a replica syncs.
func Checksum(b []byte) uint64 { return crc64.Checksum(b, crcTable) }

// Frame wraps payload in the envelope every durable file shares:
// magic || big-endian uint64 payload length || payload || CRC-64 of
// the payload. The magic names the file kind and pins its version.
func Frame(magic string, payload []byte) []byte {
	buf := make([]byte, 0, len(magic)+8+len(payload)+8)
	buf = append(buf, magic...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint64(buf, Checksum(payload))
}

// Unframe verifies a Frame envelope — magic, length and checksum — and
// returns the payload, which aliases data. A truncated, torn or
// bit-flipped frame yields a plain error that each caller wraps in its
// own ErrCorrupt; it never panics.
func Unframe(data []byte, magic string) ([]byte, error) {
	if len(data) < len(magic)+16 {
		return nil, fmt.Errorf("truncated: %d bytes is shorter than the smallest valid frame", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, errors.New("bad magic header")
	}
	n := binary.BigEndian.Uint64(data[len(magic) : len(magic)+8])
	want := uint64(len(data) - len(magic) - 16)
	if n != want {
		return nil, fmt.Errorf("payload length %d does not match frame size %d", n, want)
	}
	payload := data[len(magic)+8 : len(data)-8]
	sum := binary.BigEndian.Uint64(data[len(data)-8:])
	if got := Checksum(payload); got != sum {
		return nil, fmt.Errorf("checksum mismatch: computed %016x, stored %016x", got, sum)
	}
	return payload, nil
}

// WriteFileAtomic publishes data at final so that a crash at any point
// leaves either the previous file or the complete new one, never a torn
// mix: it writes tmp, fsyncs it, renames it onto final and fsyncs final's
// directory to make the rename durable. Every step before the rename
// removes tmp on failure. Errors are unprefixed; callers add their
// package's prefix.
func WriteFileAtomic(fsys FS, tmp, final string, data []byte) error {
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("rename %s: %w", final, err)
	}
	dir := filepath.Dir(final)
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("fsync dir %s: %w", dir, err)
	}
	return nil
}
