// Package durable is the repository's one on-disk format and its one way
// to write and read it. Every persisted store — firmware images,
// experiment checkpoints and their cache manifests, the telemetry cache,
// and control-plane campaign checkpoints — is a payload sealed in the
// envelope below, under a four-byte magic naming the store.
//
// The envelope is the firmware-image integrity envelope of Section 7.3's
// deployment story: images pushed through datacenter infrastructure
// management software can be corrupted in flight or at rest, and a single
// flipped bit in a model's parameters silently changes every prediction
// it makes. It front-loads the magic, a layout version, the payload
// length and a CRC32 (IEEE) of the payload; Open rejects any mismatch,
// which detects all single-bit and all burst errors up to 32 bits. Unwrap
// is the deliberately unsafe path that skips the check, so experiments
// can demonstrate what the detector is worth.
//
// WriteFile seals a payload and publishes it crash-safely: a unique temp
// file in the target's directory, fsynced and closed, then renamed over
// the target. A reader therefore sees the previous file or the new one,
// never a torn one, and concurrent writers never clobber each other's
// half-written temp files. ReadFile returns the payload of a file whose
// envelope verifies, and an error wrapping ErrCorrupt otherwise.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// version versions the envelope layout (magic, version byte, uint32
// payload length, uint32 CRC, payload).
const version = 1

// headerSize is the byte length of the envelope header.
const headerSize = 4 + 1 + 4 + 4

// ErrCorrupt reports sealed bytes whose envelope does not verify: wrong
// magic, unknown version, truncated payload, or checksum failure. Test
// with errors.Is.
var ErrCorrupt = errors.New("durable: sealed data corrupt")

// Seal wraps a payload in the envelope under the given magic.
func Seal(magic [4]byte, payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	copy(out, magic[:])
	out[4] = version
	binary.LittleEndian.PutUint32(out[5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[9:], crc32.ChecksumIEEE(payload))
	copy(out[headerSize:], payload)
	return out
}

// Open verifies sealed bytes and returns their payload, which aliases b.
// Any mismatch returns an error wrapping ErrCorrupt.
func Open(magic [4]byte, b []byte) ([]byte, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope header", ErrCorrupt, len(b))
	}
	if [4]byte(b[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q, want %q", ErrCorrupt, b[:4], magic[:])
	}
	if b[4] != version {
		return nil, fmt.Errorf("%w: unknown envelope version %d", ErrCorrupt, b[4])
	}
	n := binary.LittleEndian.Uint32(b[5:])
	payload := b[headerSize:]
	if uint32(len(payload)) != n {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrCorrupt, len(payload), n)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(b[9:]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Unwrap strips the envelope WITHOUT verifying it — the flag-off
// deployment path. It tolerates a corrupted header (only the overall
// length must cover it) and returns whatever payload bytes are present,
// corrupted or not.
func Unwrap(b []byte) ([]byte, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("durable: %d bytes is shorter than the envelope header", len(b))
	}
	return b[headerSize:], nil
}

// WriteFile seals payload under magic and publishes it at path: written to
// a unique temp file in the same directory, fsynced, closed, then renamed
// over path. On error the temp file is removed and path is untouched.
func WriteFile(path string, magic [4]byte, payload []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: create temp for %s: %w", path, err)
	}
	tmp := f.Name()
	_, err = f.Write(Seal(magic, payload))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	return nil
}

// ReadFile reads the sealed file at path and returns its verified payload.
// A missing file returns an error satisfying errors.Is(err,
// os.ErrNotExist); a file whose envelope does not verify returns one
// wrapping ErrCorrupt.
func ReadFile(path string, magic [4]byte) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := Open(magic, b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return payload, nil
}
