package report

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// Schema is one score-*/v1 file format: a JSON object carrying the
// format's tag under "schema" and one array of T under Key. WriteFile and
// LoadFile are the codec for every such file, so a format declares only
// its tag, its key and the order its items are written in.
type Schema[T any] struct {
	// Tag is the file's "schema" value, e.g. "score-bench/v1".
	Tag string
	// Key names the array ("runs" or "records").
	Key string
	// Order sorts the items, stably, before they are written, so that
	// files diff cleanly; nil keeps the caller's order.
	Order func(a, b T) int
}

// WriteFile writes items to path: the tag, then the items under Key,
// indented two spaces, then a trailing newline. The caller's slice is
// not reordered.
func (s Schema[T]) WriteFile(path string, items []T) error {
	items = append(make([]T, 0, len(items)), items...)
	if s.Order != nil {
		slices.SortStableFunc(items, s.Order)
	}
	body, err := json.MarshalIndent(items, "  ", "  ")
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "{\n  \"schema\": %q,\n  %q: %s\n}\n", s.Tag, s.Key, body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a file of this format, rejecting one that carries any
// other tag or lacks the array.
func (s Schema[T]) LoadFile(path string) ([]T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("report: parsing %s: %w", path, err)
	}
	var tag string
	if err := json.Unmarshal(env["schema"], &tag); err != nil || tag != s.Tag {
		return nil, fmt.Errorf("report: %s has schema %s, want %q", path, env["schema"], s.Tag)
	}
	var items []T
	if err := json.Unmarshal(env[s.Key], &items); err != nil {
		return nil, fmt.Errorf("report: parsing %s %q: %w", path, s.Key, err)
	}
	return items, nil
}
