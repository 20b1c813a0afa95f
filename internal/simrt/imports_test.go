package simrt

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCoreImportsNoSyncAndNoDeletedPackage guards the single-goroutine
// contract at the source level. A runtime, its engine, trace tables and
// collector all run on one goroutine, and the graph they execute is shared
// only once frozen and immutable, so the packages holding them are plain
// data — as are the workload builders and cost descriptors that feed them,
// since tasks carry no executable payload; the moment one of them
// imports sync or sync/atomic again, someone is sharing simulator state
// across goroutines, and the race detector only notices if a test happens to
// exercise it. The second half keeps the removed goroutine runtime (and
// everything that existed only to serve it) from being reintroduced under
// its old import paths.
func TestCoreImportsNoSyncAndNoDeletedPackage(t *testing.T) {
	const root = "../.."
	plain := map[string]bool{}
	for _, pkg := range []string{"dag", "ptt", "metrics", "core", "sim", "simrt", "workloads", "kernels", "simnet"} {
		plain[filepath.Join(root, "internal", pkg)] = true
	}
	deleted := []string{
		"dynasym/internal/xtr", "dynasym/internal/mpilite", "dynasym/internal/heatdriver",
		"dynasym/internal/affinity", "dynasym/cmd/heatdist", "dynasym/examples",
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir // .git, .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if (p == "sync" || p == "sync/atomic") && plain[filepath.Dir(path)] && !strings.HasSuffix(path, "_test.go") {
				t.Errorf("%s imports %q: the simulator's core types are single-goroutine and unsynchronized", path, p)
			}
			if p == "dynasym" {
				t.Errorf("%s imports the removed root package", path)
			}
			for _, gone := range deleted {
				if p == gone || strings.HasPrefix(p, gone+"/") {
					t.Errorf("%s imports removed package %q", path, p)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
