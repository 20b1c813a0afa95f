package simrt

import (
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/machine"
	"dynasym/internal/topology"
)

// Start sizes the completion record to the graph's task count, so no
// completion grows it: the run ends on the array Start gave it, full.
func TestRecordNeverReallocatesAfterStart(t *testing.T) {
	const n = 1200
	topo := topology.TX2()
	rt, err := New(Config{Topo: topo, Model: machine.New(topo), Policy: core.DAMC(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(probeGraph(n)); err != nil {
		t.Fatal(err)
	}
	started := rt.Collector().Completions()
	if len(started) != 0 || cap(started) != n {
		t.Fatalf("record after Start has len %d, cap %d; want 0 and %d", len(started), cap(started), n)
	}
	first := &started[:1][0]
	rt.Engine().Run()
	done := rt.Collector().Completions()
	if len(done) != n || cap(done) != n || &done[0] != first {
		t.Fatalf("record after the run has len %d, cap %d and moved: %v; want %d entries in the array Start sized",
			len(done), cap(done), &done[0] != first, n)
	}
}
