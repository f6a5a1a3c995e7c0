package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var testMagic = [4]byte{'T', 'E', 'S', 'T'}

func sealTestPayload() ([]byte, []byte) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	return payload, Seal(testMagic, payload)
}

func TestSealOpenRoundTrip(t *testing.T) {
	payload, img := sealTestPayload()
	got, err := Open(testMagic, img)
	if err != nil {
		t.Fatalf("Open on pristine sealed bytes: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload not preserved through the envelope")
	}
}

func TestOpenCatchesEverySingleBitFlip(t *testing.T) {
	_, img := sealTestPayload()
	// Exhaustive: CRC32 detects every single-bit error, header fields
	// included (magic, version, and length mismatches fail their own
	// checks; CRC-field flips fail the comparison).
	for pos := 0; pos < len(img)*8; pos++ {
		corrupt := append([]byte(nil), img...)
		corrupt[pos/8] ^= 1 << (pos % 8)
		if _, err := Open(testMagic, corrupt); err == nil {
			t.Fatalf("bit flip at position %d went undetected", pos)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at position %d: error %v does not wrap ErrCorrupt", pos, err)
		}
	}
}

func TestOpenRejectsTruncation(t *testing.T) {
	_, img := sealTestPayload()
	for _, n := range []int{0, 4, headerSize - 1, len(img) - 1} {
		if _, err := Open(testMagic, img[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
}

func TestOpenRejectsOtherMagic(t *testing.T) {
	_, img := sealTestPayload()
	if _, err := Open([4]byte{'C', 'G', 'F', 'W'}, img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("opened under another store's magic: %v", err)
	}
}

func TestUnwrapSkipsVerification(t *testing.T) {
	payload, img := sealTestPayload()
	// Corrupt a payload byte: Open must reject, Unwrap must not.
	corrupt := append([]byte(nil), img...)
	corrupt[headerSize+10] ^= 0x40
	if _, err := Open(testMagic, corrupt); err == nil {
		t.Fatal("Open accepted a corrupted payload")
	}
	got, err := Unwrap(corrupt)
	if err != nil {
		t.Fatalf("Unwrap: %v", err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("unwrapped payload should carry the corruption")
	}
	if len(got) != len(payload) {
		t.Fatalf("unwrapped %d bytes, want %d", len(got), len(payload))
	}
}

// TestWriteReadFile covers the file layer: a round trip, a missing file
// reported as os.ErrNotExist, a corrupted file as ErrCorrupt, and no temp
// file left behind by a successful write.
func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store")
	if _, err := ReadFile(path, testMagic); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: got %v, want os.ErrNotExist", err)
	}
	payload, _ := sealTestPayload()
	for i := 0; i < 2; i++ { // the second write replaces the first
		if err := WriteFile(path, testMagic, payload); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadFile(path, testMagic)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries after writes, want only the store", len(entries))
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, testMagic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted file: got %v, want ErrCorrupt", err)
	}

	if err := WriteFile(filepath.Join(dir, "no-such-dir", "store"), testMagic, payload); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// TestWriteFileConcurrent has several writers publish distinct payloads
// to one path while readers poll it: every read sees one complete
// payload (never a torn file), and no temp file survives.
func TestWriteFileConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store")
	payloads := make([][]byte, 4)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte(fmt.Sprintf("writer %d;", i)), 4096)
	}
	if err := WriteFile(path, testMagic, payloads[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range payloads {
		wg.Add(2)
		go func(p []byte) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if err := WriteFile(path, testMagic, p); err != nil {
					t.Error(err)
				}
			}
		}(payloads[i])
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				got, err := ReadFile(path, testMagic)
				if err != nil {
					t.Error(err)
					continue
				}
				ok := false
				for _, p := range payloads {
					ok = ok || bytes.Equal(got, p)
				}
				if !ok {
					t.Error("read a payload no writer wrote")
				}
			}
		}()
	}
	wg.Wait()
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries after concurrent writes, want 1", len(entries))
	}
}

// FuzzOpen: Open never panics, and it accepts exactly the bytes Seal
// produced — any input it opens re-seals to itself, and any payload
// survives a Seal/Open round trip.
func FuzzOpen(f *testing.F) {
	payload, img := sealTestPayload()
	f.Add(img)
	f.Add(payload)
	f.Add(Seal(testMagic, nil))
	f.Add(img[:headerSize])
	path := filepath.Join(f.TempDir(), "store")
	if err := WriteFile(path, testMagic, []byte(`{"seed":"a file WriteFile wrote"}`)); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	f.Fuzz(func(t *testing.T, b []byte) {
		if p, err := Open(testMagic, b); err == nil {
			if !bytes.Equal(Seal(testMagic, p), b) {
				t.Fatalf("Open accepted %x, which Seal does not produce", b)
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open error %v does not wrap ErrCorrupt", err)
		}
		p, err := Open(testMagic, Seal(testMagic, b))
		if err != nil || !bytes.Equal(p, b) {
			t.Fatalf("Seal/Open round trip of %x: %x, %v", b, p, err)
		}
	})
}
