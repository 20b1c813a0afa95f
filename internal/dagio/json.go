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
// otherwise silently change the workload). The schema is GraphSpec's own
// JSON encoding, which doubles as the canonical encoding — see Canonical.

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// parseJSON decodes a JSON task-graph document into a validated,
// normalized GraphSpec.
func parseJSON(data []byte) (*GraphSpec, error) {
	var g GraphSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("dagio: parse JSON graph: %w", err)
	}
	// A second document after the first is garbage, not padding.
	if dec.More() {
		return nil, fmt.Errorf("dagio: parse JSON graph: trailing data after document")
	}
	ng := g.normalized()
	if err := ng.Validate(); err != nil {
		return nil, err
	}
	return ng, nil
}
