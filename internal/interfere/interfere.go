// Package interfere builds the paper's interference scenarios by installing
// time-varying profiles into a machine model:
//
//   - co-running applications that time-share victim cores (CPU
//     interference) and optionally consume memory bandwidth (memory
//     interference);
//   - DVFS square waves on a cluster's clock (power-management
//     interference).
//
// The scenarios only touch the model; the schedulers observe them purely
// through task execution times, exactly as applications observe real
// interference.
package interfere

import (
	"dynasym/internal/machine"
	"dynasym/internal/profile"
)

// CoRunCPU models a compute-bound co-runner (the paper's serial matmul
// chain) pinned to the given cores for the whole run: the OS time-shares
// each victim core, leaving `share` of its cycles to the runtime (0.5 for
// one equal-priority co-runner).
func CoRunCPU(m *machine.Model, cores []int, share float64) {
	for _, c := range cores {
		m.SetCoreAvail(c, profile.Constant(share))
	}
}

// CoRunCPUEpisode is CoRunCPU limited to the interval [from, to) seconds.
func CoRunCPUEpisode(m *machine.Model, cores []int, share, from, to float64) {
	for _, c := range cores {
		m.SetCoreAvail(c, profile.Episode(1.0, share, from, to))
	}
}

// CoRunMemory models a memory-bound co-runner (the paper's serial copy
// chain) pinned to one core: the victim core time-shares its cycles and the
// whole victim cluster loses a fraction of its memory bandwidth to the
// co-runner's streaming.
func CoRunMemory(m *machine.Model, core int, share, bwFactor float64) {
	m.SetCoreAvail(core, profile.Constant(share))
	ci := m.Platform().ClusterOf(core)
	base := m.Platform().Cluster(ci).MemBandwidth
	m.SetClusterBandwidth(ci, profile.Constant(base*bwFactor))
}

// DVFS installs the paper's power-management scenario: the cluster's clock
// alternates between hiHz (for hiDur seconds) and loHz (for loDur seconds),
// repeating forever. The paper uses 2035 MHz / 345 MHz with 5 s + 5 s.
func DVFS(m *machine.Model, cluster int, hiHz, loHz, hiDur, loDur float64) {
	m.SetClusterFreq(cluster, profile.SquareWave(hiHz, loHz, hiDur, loDur))
}

// The exact DVFS wave parameters from the paper's Section 5.2: the Denver
// cluster alternates between its frequency extremes every five seconds.
const (
	PaperHiHz  = 2035e6
	PaperLoHz  = 345e6
	PaperHiDur = 5.0
	PaperLoDur = 5.0
)

// BurstCPU models intermittent bursty co-runners on the victim cores: on
// each core the interferer is active for busyDur seconds (leaving `share`
// of the core to the runtime) and sleeps for idleDur seconds, repeating
// forever. Successive cores' waves are shifted by phaseStep seconds
// starting from phase0, so the bursts sweep across the victim set instead
// of firing in lock-step — the hardest case for a scheduler that has just
// learned where the quiet cores are.
func BurstCPU(m *machine.Model, cores []int, share, busyDur, idleDur, phase0, phaseStep float64) {
	for i, c := range cores {
		phase := phase0 + float64(float64(i)*phaseStep)
		m.SetCoreAvail(c, profile.PhasedSquareWave(share, 1.0, busyDur, idleDur, phase))
	}
}

// ThrottleRamp models a thermal throttle of a cluster: the clock steps down
// from the cluster's base frequency to floor×base over [from, to) in
// `steps` equal plateaus and stays at the floor afterwards (heat soak, no
// recovery). Unlike the DVFS square wave the degradation is gradual and
// permanent, so schedulers must keep re-learning a moving target.
func ThrottleRamp(m *machine.Model, cluster int, from, to, floor float64, steps int) {
	base := m.Platform().Cluster(cluster).BaseHz
	if steps < 1 {
		steps = 1
	}
	var segs []profile.Segment
	if from > 0 {
		segs = append(segs, profile.Segment{Start: 0, Value: base})
	}
	for k := 0; k < steps; k++ {
		start := from + (to-from)*float64(k)/float64(steps)
		value := base * (1 - (1-floor)*float64(k+1)/float64(steps))
		segs = append(segs, profile.Segment{Start: start, Value: value})
	}
	m.SetClusterFreq(cluster, profile.MustSteps(segs...))
}

// Stall models a transient full stall of a core (failure injection beyond
// the paper: the core contributes nothing during [from, to)). Schedulers
// must route around it or wait it out.
func Stall(m *machine.Model, core int, from, to float64) {
	m.SetCoreAvail(core, profile.Episode(1.0, 0.0, from, to))
}
