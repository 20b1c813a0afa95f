package dagio

// JSON import: the documented task-graph schema. A document is one
// object:
//
//	{
//	  "name":  "demo",                       // optional label
//	  "nodes": [
//	    {"id": "a", "work": 6.1e6,           // required, positive
//	     "bytes": 6.6e4,                     // optional DRAM traffic
//	     "type": "gemm",                     // optional PTT class
//	     "high": true}                       // optional priority mark
//	  ],
//	  "edges": [{"from": "a", "to": "b"}]    // dependencies
//	}
//
// Unknown fields are errors (they are almost always typos that would
// otherwise silently change the workload). The same schema doubles as
// the canonical encoding — see JSONGraph.

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// parseJSON decodes a JSON task-graph document into a validated,
// normalized GraphSpec.
func parseJSON(data []byte) (*GraphSpec, error) {
	var w JSONGraph
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("dagio: parse JSON graph: %w", err)
	}
	// A second document after the first is garbage, not padding.
	if dec.More() {
		return nil, fmt.Errorf("dagio: parse JSON graph: trailing data after document")
	}
	g := FromWire(w).normalized()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
