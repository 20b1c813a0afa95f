package topology

import "fmt"

// Preset platforms mirroring the paper's two evaluation machines. The cache
// sizes and frequencies are taken from the paper (TX2: 2 MB L2 per cluster,
// 32 KB A57 / 64 KB Denver L1D, 2035/345 MHz DVFS extremes) and public
// Haswell specs. Speeds are relative sustained work rates per clock: the
// paper states Denver cores are "generally faster" than A57 cores, and
// back-solving its absolute throughputs (Fig. 4a: RWS ≈ 900 vs DAM ≈ 3100
// tasks/s, capacity ≈ 3300 at P=6) puts the Denver:A57 gap near 4× for the
// scalar compute kernels; 4.0 vs 1.0 reproduces those ratios.

// TX2 returns the NVIDIA Jetson TX2 platform: a dual-core Denver cluster
// (cores 0-1) and a quad-core ARM A57 cluster (cores 2-5), each with a
// private 2 MB L2. This matches the core numbering used by the paper's
// Figure 5 (cores 0,1 = Denver; 2-5 = A57).
func TX2() *Platform {
	return mustNew([]Cluster{
		{
			Name:         "denver",
			FirstCore:    0,
			NumCores:     2,
			Widths:       []int{1, 2},
			Speed:        4.0,
			BaseHz:       2.035e9,
			L1Bytes:      64 << 10,
			L2Bytes:      2 << 20,
			MemBandwidth: 30e9,
		},
		{
			Name:         "a57",
			FirstCore:    2,
			NumCores:     4,
			Widths:       []int{1, 2, 4},
			Speed:        1.0,
			BaseHz:       2.035e9,
			L1Bytes:      32 << 10,
			L2Bytes:      2 << 20,
			MemBandwidth: 30e9,
		},
	})
}

// HaswellNode returns one dual-socket 10-core Intel Xeon E5-2650v3 node:
// two symmetric 10-core clusters (sockets), 25 MB LLC each. nodeID tags the
// clusters for distributed runs.
func HaswellNode(nodeID int) *Platform {
	mk := func(name string, first int) Cluster {
		return Cluster{
			Name:         name,
			FirstCore:    first,
			NumCores:     10,
			Widths:       []int{1, 2, 5, 10},
			Speed:        1.6,
			BaseHz:       2.3e9,
			L1Bytes:      32 << 10,
			L2Bytes:      25 << 20,
			MemBandwidth: 60e9,
			NodeID:       nodeID,
		}
	}
	return mustNew([]Cluster{mk("socket0", 0), mk("socket1", 10)})
}

// Haswell16 returns the 16-core dual-socket Haswell configuration used in
// the paper's K-means experiment (Figure 9): two symmetric 8-core sockets.
func Haswell16() *Platform {
	mk := func(name string, first int) Cluster {
		return Cluster{
			Name:         name,
			FirstCore:    first,
			NumCores:     8,
			Widths:       []int{1, 2, 4, 8},
			Speed:        1.6,
			BaseHz:       2.3e9,
			L1Bytes:      32 << 10,
			L2Bytes:      20 << 20,
			MemBandwidth: 60e9,
		}
	}
	return mustNew([]Cluster{mk("socket0", 0), mk("socket1", 8)})
}

// ScaleOut returns a large asymmetric platform for scalability scenarios
// beyond the paper's machines: nClusters clusters of coresPer cores each,
// alternating fast ("big", 4× work per clock) and slow ("little") clusters,
// with power-of-two widths up to the cluster size. 4×4 gives a 16-core
// TX2-style board; 8×8 a 64-core many-cluster server. The O(K) Sampled
// search is aimed at exactly these place counts.
func ScaleOut(nClusters, coresPer int) *Platform {
	var widths []int
	for w := 1; w <= coresPer; w *= 2 {
		if coresPer%w == 0 {
			widths = append(widths, w)
		}
	}
	var cs []Cluster
	for i := 0; i < nClusters; i++ {
		c := Cluster{
			FirstCore:    i * coresPer,
			NumCores:     coresPer,
			Widths:       append([]int(nil), widths...),
			BaseHz:       2.0e9,
			MemBandwidth: 40e9,
			L2Bytes:      4 << 20,
		}
		if i%2 == 0 {
			c.Name = fmt.Sprintf("big%d", i)
			c.Speed = 4.0
			c.L1Bytes = 64 << 10
		} else {
			c.Name = fmt.Sprintf("little%d", i)
			c.Speed = 1.0
			c.L1Bytes = 32 << 10
		}
		cs = append(cs, c)
	}
	return mustNew(cs)
}

// Symmetric returns a single-cluster platform with n identical cores and
// power-of-two widths up to n (n must be a power of two). Useful for unit
// tests and the quickstart example.
func Symmetric(n int) *Platform {
	widths := []int{}
	for w := 1; w <= n; w *= 2 {
		widths = append(widths, w)
	}
	return mustNew([]Cluster{{
		Name:         "cpu",
		FirstCore:    0,
		NumCores:     n,
		Widths:       widths,
		Speed:        1.0,
		BaseHz:       2e9,
		L1Bytes:      32 << 10,
		L2Bytes:      8 << 20,
		MemBandwidth: 40e9,
	}})
}
