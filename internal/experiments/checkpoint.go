package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"clustergate/internal/dataset"
	"clustergate/internal/durable"
	"clustergate/internal/obs"
)

// Durable-envelope magics of the two files a checkpoint directory holds.
var (
	checkpointMagic    = [4]byte{'C', 'G', 'C', 'K'}
	cacheManifestMagic = [4]byte{'C', 'G', 'C', 'M'}
)

// CheckpointEntry is one completed experiment's persisted outcome: the
// exact bytes it wrote to stdout, its machine-readable metrics, and the
// exact bytes of its bench document, if it has one. Seed and Scale guard
// against replaying results into a differently-configured run.
type CheckpointEntry struct {
	Name    string             `json:"name"`
	Seed    int64              `json:"seed"`
	Scale   string             `json:"scale"`
	Output  string             `json:"output"`
	Seconds float64            `json:"seconds"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Bench   string             `json:"bench,omitempty"`
}

// ignoredEntries counts stored entries OpenCheckpoint dropped because they
// were recorded under another seed or scale.
var ignoredEntries = obs.NewCounter("experiments.checkpoint.ignored")

// Checkpoint is a crash-safe store of completed experiments, keyed by
// experiment name, backing paperbench's -checkpoint flag. Each Save
// rewrites the whole store as one sealed, fsynced durable file, so a run
// killed at any instant leaves either the previous consistent store or
// the new one, and a torn or edited file is an error rather than trusted.
// A resumed run replays checkpointed stdout verbatim and re-runs only what
// is missing, which is what makes the resumed output byte-identical to an
// uninterrupted run.
//
// A nil *Checkpoint is a valid no-op store (checkpointing disabled), so
// callers never branch on enablement.
type Checkpoint struct {
	path    string
	seed    int64
	scale   string
	entries map[string]CheckpointEntry
	ignored string
}

// OpenCheckpoint opens (or starts) the store at dir for a run with the
// given seed and scale. Entries recorded under a different seed or scale
// are ignored — they describe a different run and must not be replayed
// into this one — and counted in experiments.checkpoint.ignored; Ignored
// says which.
func OpenCheckpoint(dir string, seed int64, scale string) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: checkpoint dir: %w", err)
	}
	c := &Checkpoint{
		path:    filepath.Join(dir, "checkpoint.ckpt"),
		seed:    seed,
		scale:   scale,
		entries: map[string]CheckpointEntry{},
	}
	var all []CheckpointEntry
	if err := readJSON(c.path, checkpointMagic, &all); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return c, nil
		}
		return nil, fmt.Errorf("experiments: checkpoint: %w", err)
	}
	var foreign []string
	for _, e := range all {
		if e.Seed == seed && e.Scale == scale {
			c.entries[e.Name] = e
			continue
		}
		ignoredEntries.Inc()
		foreign = append(foreign, fmt.Sprintf("%s (seed %d, scale %q)", e.Name, e.Seed, e.Scale))
	}
	if len(foreign) > 0 {
		c.ignored = fmt.Sprintf("ignoring %d entries recorded under another seed or scale (this run: seed %d, scale %q): %s",
			len(foreign), seed, scale, strings.Join(foreign, ", "))
	}
	return c, nil
}

// Ignored describes the entries OpenCheckpoint dropped for a seed or scale
// mismatch, in one line; it is empty when none were.
func (c *Checkpoint) Ignored() string {
	if c == nil {
		return ""
	}
	return c.ignored
}

// Load returns the checkpointed entry for an experiment, if present.
func (c *Checkpoint) Load(name string) (CheckpointEntry, bool) {
	if c == nil {
		return CheckpointEntry{}, false
	}
	e, ok := c.entries[name]
	return e, ok
}

// Has reports whether every named experiment is checkpointed.
func (c *Checkpoint) Has(names ...string) bool {
	if c == nil {
		return false
	}
	for _, n := range names {
		if _, ok := c.entries[n]; !ok {
			return false
		}
	}
	return true
}

// Save records a completed experiment and persists the store.
func (c *Checkpoint) Save(e CheckpointEntry) error {
	if c == nil {
		return nil
	}
	e.Seed, e.Scale = c.seed, c.scale
	c.entries[e.Name] = e
	all := make([]CheckpointEntry, 0, len(c.entries))
	for _, entry := range c.entries {
		all = append(all, entry)
	}
	// Stable order keeps the file diffable across saves.
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	if err := writeJSON(c.path, checkpointMagic, all); err != nil {
		return fmt.Errorf("experiments: checkpoint: %w", err)
	}
	return nil
}

// cacheManifestPath is the cache manifest's file, next to the store.
func (c *Checkpoint) cacheManifestPath() string {
	return filepath.Join(filepath.Dir(c.path), "cache-manifest.ckpt")
}

// SaveCacheManifest persists the telemetry-cache files the run depends on
// alongside the checkpoint. A resumed run can then check the manifest to
// know whether its caches survive — i.e. whether the resume replays fully
// offline or must re-simulate.
func (c *Checkpoint) SaveCacheManifest(refs []dataset.CacheFileRef) error {
	if c == nil {
		return nil
	}
	if err := writeJSON(c.cacheManifestPath(), cacheManifestMagic, refs); err != nil {
		return fmt.Errorf("experiments: cache manifest: %w", err)
	}
	return nil
}

// CacheManifest loads the previously saved telemetry-cache manifest; a
// missing manifest returns an empty slice, a corrupt one an error.
func (c *Checkpoint) CacheManifest() ([]dataset.CacheFileRef, error) {
	if c == nil {
		return nil, nil
	}
	var refs []dataset.CacheFileRef
	if err := readJSON(c.cacheManifestPath(), cacheManifestMagic, &refs); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("experiments: cache manifest: %w", err)
	}
	return refs, nil
}

// writeJSON persists v as indented JSON in a sealed durable file.
func writeJSON(path string, magic [4]byte, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(path, magic, append(b, '\n'))
}

// readJSON decodes a sealed durable file into v. A payload that verifies
// but does not decode is reported as corrupt, like a failed envelope.
func readJSON(path string, magic [4]byte, v any) error {
	b, err := durable.ReadFile(path, magic)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%w: %s: %v", durable.ErrCorrupt, path, err)
	}
	return nil
}
