package mpgen

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Write scans root's module, renders every generated file, and writes the
// ones whose content changed. It returns the module-relative paths it
// rewrote.
func Write(root string) ([]string, error) {
	m, err := Scan(root)
	if err != nil {
		return nil, err
	}
	files, err := m.Generate()
	if err != nil {
		return nil, err
	}
	var wrote []string
	for _, rel := range sortedKeys(files) {
		abs := filepath.Join(m.Root, filepath.FromSlash(rel))
		if old, err := os.ReadFile(abs); err == nil && bytes.Equal(old, files[rel]) {
			continue
		}
		if err := os.WriteFile(abs, files[rel], 0o644); err != nil {
			return wrote, fmt.Errorf("mpgen: %w", err)
		}
		wrote = append(wrote, rel)
	}
	return wrote, nil
}

// Check scans root's module and reports every generated file that is
// missing or stale on disk, without writing anything: one line per file,
// naming the first line that differs ("-" what is committed, "+" what mpgen
// would emit). An empty result means the checked-in output matches — the
// drift gate, for CI and tier-1 alike. Every fact the generated files carry
// (field layouts, widths, wire ids, tag values, per-tag payload sets, the
// collective census) is in their bytes, so the byte compare sees any drift
// a field-by-field diff would.
func Check(root string) ([]string, error) {
	m, err := Scan(root)
	if err != nil {
		return nil, err
	}
	files, err := m.Generate()
	if err != nil {
		return nil, err
	}
	var stale []string
	for _, rel := range sortedKeys(files) {
		old, err := os.ReadFile(filepath.Join(m.Root, filepath.FromSlash(rel)))
		if err != nil {
			stale = append(stale, rel+": missing")
		} else if !bytes.Equal(old, files[rel]) {
			stale = append(stale, rel+":"+firstDiff(old, files[rel]))
		}
	}
	return stale, nil
}

// firstDiff renders the first line at which two unequal texts part.
func firstDiff(old, want []byte) string {
	a, b := strings.Split(string(old), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	line := func(s []string) string {
		if i < len(s) {
			return strings.TrimSpace(s[i])
		}
		return "<end of file>"
	}
	return fmt.Sprintf("%d: - %s / + %s", i+1, line(a), line(b))
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
