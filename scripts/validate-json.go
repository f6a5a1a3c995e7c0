//go:build ignore

// validate-json checks that each argument parses as a JSON document and,
// where the file's shape identifies a known schema, validates that schema.
// Used by check.sh to gate the artifacts emitted by the observability
// layer; run it as
//
//	go run scripts/validate-json.go FILE...
//
// Four shapes are recognised:
//
//   - *.jsonl — an event log: every line must be a JSON object carrying
//     the required scope/t/kind fields, and lines must be sorted by
//     (scope, t, kind) — the determinism contract obs.EventLog.WriteJSONL
//     promises.
//   - a JSON object with a "traceEvents" array — a Chrome trace: every
//     event needs name/ph/pid/tid, "X" events need ts and non-negative
//     dur.
//   - a JSON object with a "schema" field — a bench envelope: it must be a
//     valid clustergate-bench/v1 document (obs.Bench.Validate).
//   - anything else — plain JSON well-formedness.
//
// It exits nonzero on the first unreadable or malformed file and prints a
// one-line summary per valid file as a sanity signal.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"clustergate/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: validate-json FILE...")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		if err := validate(path); err != nil {
			fmt.Fprintf(os.Stderr, "validate-json: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}

func validate(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		return validateEventLog(path, data)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	switch v := doc.(type) {
	case map[string]any:
		if events, ok := v["traceEvents"].([]any); ok {
			return validateChromeTrace(path, events)
		}
		if _, ok := v["schema"]; ok {
			b, err := obs.ParseBench(data)
			if err != nil {
				return err
			}
			fmt.Printf("%s: valid bench envelope %q, %d metrics\n", path, b.Name, len(b.Metrics))
			return nil
		}
		fmt.Printf("%s: valid JSON object, %d top-level keys\n", path, len(v))
	case []any:
		fmt.Printf("%s: valid JSON array, %d elements\n", path, len(v))
	default:
		fmt.Printf("%s: valid JSON\n", path)
	}
	return nil
}

// validateEventLog checks an obs event log: JSONL, required fields, and
// deterministic (scope, t, kind) ordering.
func validateEventLog(path string, data []byte) error {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var prevScope, prevKind string
	var prevT float64
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		n++
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		scope, _ := ev["scope"].(string)
		kind, _ := ev["kind"].(string)
		t, tok := ev["t"].(float64)
		if scope == "" || kind == "" || !tok {
			return fmt.Errorf("line %d: event missing scope/t/kind: %s", n, line)
		}
		if n > 1 {
			if scope < prevScope ||
				(scope == prevScope && t < prevT) ||
				(scope == prevScope && t == prevT && kind < prevKind) {
				return fmt.Errorf("line %d: events not sorted by (scope, t, kind)", n)
			}
		}
		prevScope, prevT, prevKind = scope, t, kind
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Printf("%s: valid event log, %d events, deterministically ordered\n", path, n)
	return nil
}

// validateChromeTrace checks the trace-event array: metadata and complete
// events with the fields Perfetto requires.
func validateChromeTrace(path string, events []any) error {
	for i, e := range events {
		ev, ok := e.(map[string]any)
		if !ok {
			return fmt.Errorf("traceEvents[%d]: not an object", i)
		}
		if _, ok := ev["name"].(string); !ok {
			return fmt.Errorf("traceEvents[%d]: missing name", i)
		}
		ph, _ := ev["ph"].(string)
		if ph != "X" && ph != "M" {
			return fmt.Errorf("traceEvents[%d]: unexpected ph %q", i, ph)
		}
		for _, k := range []string{"pid", "tid"} {
			if _, ok := ev[k].(float64); !ok {
				return fmt.Errorf("traceEvents[%d]: missing %s", i, k)
			}
		}
		if ph == "X" {
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				return fmt.Errorf("traceEvents[%d]: X event needs non-negative ts", i)
			}
			if dur, ok := ev["dur"].(float64); ok && dur < 0 {
				return fmt.Errorf("traceEvents[%d]: negative dur", i)
			}
		}
	}
	fmt.Printf("%s: valid Chrome trace, %d events\n", path, len(events))
	return nil
}
