package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustergate/internal/durable"
)

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCheckpoint(dir, 7, "quick")
	if err != nil {
		t.Fatal(err)
	}
	if c.Has("fig7") {
		t.Fatal("empty store claims fig7")
	}
	e := CheckpointEntry{Name: "fig7", Output: "row one\nrow two\n",
		Seconds: 1.5, Metrics: map[string]float64{"mean": 0.42}}
	if err := c.Save(e); err != nil {
		t.Fatal(err)
	}

	// Reopen with the same identity: the entry replays.
	c2, err := OpenCheckpoint(dir, 7, "quick")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Load("fig7")
	if !ok || got.Output != e.Output || got.Metrics["mean"] != 0.42 {
		t.Fatalf("round trip lost the entry: %+v ok=%v", got, ok)
	}
	if !c2.Has("fig7") || c2.Has("fig7", "fig8") {
		t.Fatal("Has misreports")
	}

	if c2.Ignored() != "" {
		t.Fatalf("matching entry reported ignored: %s", c2.Ignored())
	}

	// A different seed or scale must ignore the entry, visibly: counted,
	// and described with the stored run's identity.
	for _, open := range []func() (*Checkpoint, error){
		func() (*Checkpoint, error) { return OpenCheckpoint(dir, 8, "quick") },
		func() (*Checkpoint, error) { return OpenCheckpoint(dir, 7, "full") },
	} {
		before := ignoredEntries.Value()
		cx, err := open()
		if err != nil {
			t.Fatal(err)
		}
		if cx.Has("fig7") {
			t.Fatal("entry replayed across seed/scale mismatch")
		}
		if n := ignoredEntries.Value() - before; n != 1 {
			t.Fatalf("ignored counter rose by %d, want 1", n)
		}
		if why := cx.Ignored(); !strings.Contains(why, `fig7 (seed 7, scale "quick")`) {
			t.Fatalf("ignore reason %q does not name the stored entry", why)
		}
	}
}

// TestCheckpointAtomicity asserts Save never leaves a torn store: the
// persisted file parses after every save, and a leftover temp file from a
// simulated crash is invisible to readers.
func TestCheckpointAtomicity(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCheckpoint(dir, 1, "quick")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := c.Save(CheckpointEntry{Name: name, Output: name + "\n"}); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(dir, 1, "quick"); err != nil {
			t.Fatalf("store unreadable after saving %q: %v", name, err)
		}
	}
	// Simulate a crash mid-write: a stray temp file must not perturb reads.
	tmp := filepath.Join(dir, "checkpoint.ckpt.tmp-12345")
	if err := os.WriteFile(tmp, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCheckpoint(dir, 1, "quick")
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Has("a", "b", "c") {
		t.Fatal("entries lost after simulated crash")
	}
}

// TestCheckpointNil asserts the nil store is a usable no-op.
func TestCheckpointNil(t *testing.T) {
	var c *Checkpoint
	if err := c.Save(CheckpointEntry{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("x"); ok || c.Has("x") {
		t.Fatal("nil store claims entries")
	}
}

// FuzzOpenCheckpoint: OpenCheckpoint over arbitrary file bytes returns a
// store or an error, never panics, and a store it opens stays writable
// and reopenable. Each input is tried twice: as the raw file, and sealed,
// so mutations also reach the JSON decoder behind the CRC. Seeds are
// stores Save wrote.
func FuzzOpenCheckpoint(f *testing.F) {
	dir := f.TempDir()
	c, err := OpenCheckpoint(dir, 7, "quick")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range []CheckpointEntry{
		{Name: "fig7", Output: "row one\n", Seconds: 1.5, Metrics: map[string]float64{"mean": 0.42}},
		{Name: "fleet-rollout", Output: "x\n", Bench: `{"schema":"clustergate-bench/v1"}`},
	} {
		if err := c.Save(e); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "checkpoint.ckpt"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		payload, err := durable.Open(checkpointMagic, raw)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		for _, file := range [][]byte{b, durable.Seal(checkpointMagic, b)} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "checkpoint.ckpt"), file, 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := OpenCheckpoint(dir, 7, "quick")
			if err != nil {
				continue
			}
			if err := c.Save(CheckpointEntry{Name: "fuzz"}); err != nil {
				t.Fatalf("saving to an opened store: %v", err)
			}
			if c2, err := OpenCheckpoint(dir, 7, "quick"); err != nil || !c2.Has("fuzz") {
				t.Fatalf("reopening a saved store: %v", err)
			}
		}
	})
}
