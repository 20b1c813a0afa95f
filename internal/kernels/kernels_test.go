package kernels

import "testing"

func TestCostShapes(t *testing.T) {
	mm := MatMulCost(64)
	cp := CopyCost(1024)
	st := StencilCost(1024, 1)
	// MatMul is compute-heavy: ops per byte far above Copy's.
	if mm.Ops/mm.Bytes <= cp.Ops/cp.Bytes {
		t.Fatal("MatMul should have higher arithmetic intensity than Copy")
	}
	// Copy cannot benefit from caches.
	if cp.WorkingSet != 0 {
		t.Fatal("Copy must declare a streaming (zero) working set")
	}
	// Stencil is in between.
	if !(st.Ops/st.Bytes > cp.Ops/cp.Bytes) {
		t.Fatal("Stencil should be more compute-intense than Copy")
	}
	// Cubic vs quadratic growth.
	if MatMulCost(128).Ops/mm.Ops < 7.9 {
		t.Fatal("MatMul ops should grow cubically with tile size")
	}
}
