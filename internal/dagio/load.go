package dagio

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Import formats, in the order Formats() reports them.
const (
	// formatDOT is the GraphViz DOT subset (see dot.go).
	formatDOT = "dot"
	// formatJSON is the documented JSON schema (see json.go).
	formatJSON = "json"
)

// Formats lists the import formats in sorted order.
func Formats() []string { return []string{formatDOT, formatJSON} }

// parse decodes data in the named format ("dot" or "json").
func parse(data []byte, format string) (*GraphSpec, error) {
	switch format {
	case formatDOT:
		return ParseDOT(data)
	case formatJSON:
		return parseJSON(data)
	default:
		return nil, fmt.Errorf("dagio: unknown import format %q (known formats: %s)", format, strings.Join(Formats(), ", "))
	}
}

// LoadFile reads and parses a task-graph file, picking the format from
// the extension (.dot/.gv → DOT, .json → JSON) unless format is
// non-empty. The path only locates the bytes: the loaded graph's
// identity is its content Digest, so moving or renaming the file never
// changes a spec hash.
func LoadFile(path, format string) (*GraphSpec, error) {
	if format == "" {
		switch strings.ToLower(filepath.Ext(path)) {
		case ".dot", ".gv":
			format = formatDOT
		case ".json":
			format = formatJSON
		default:
			return nil, fmt.Errorf("dagio: cannot infer format of %q (use .dot, .gv or .json, or pass a format)", path)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dagio: %w", err)
	}
	g, err := parse(data, format)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if g.Name == "" {
		g.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return g, nil
}
