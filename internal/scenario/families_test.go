package scenario

import (
	"os"
	"testing"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	// The table is a literal: sorted and free of duplicates by inspection,
	// and by this check (strictly ascending is both).
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("family table out of order or duplicated at %d: %q then %q", i, names[i-1], names[i])
		}
	}
	want := []string{"burst-sweep", "scaleout-16", "scaleout-32", "scaleout-64", "throttle-ramp"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Errorf("family %q not registered (have %v)", w, names)
		}
	}
	if _, ok := Lookup("burst-sweep"); !ok {
		t.Errorf("Lookup(burst-sweep) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Errorf("Lookup(nope) succeeded")
	}
}

// ScaleTasks is the one task-count scaler: the families and the experiment
// drivers both shrink their workloads through it.
func TestScaleTasks(t *testing.T) {
	if ScaleTasks(100, 0, 10) != 100 {
		t.Fatal("zero scale should be identity")
	}
	if ScaleTasks(100, 1, 10) != 100 {
		t.Fatal("unit scale should be identity")
	}
	if ScaleTasks(100, 0.1, 10) != 10 {
		t.Fatal("scaling wrong")
	}
	if ScaleTasks(100, 0.01, 10) != 10 {
		t.Fatal("minimum not applied")
	}
}

// Every registered family must validate at full and at test scale.
func TestFamiliesValidate(t *testing.T) {
	for _, name := range Names() {
		f, _ := Lookup(name)
		for _, scale := range []float64{1.0, 0.05} {
			if err := f.Spec(scale).Validate(); err != nil {
				t.Errorf("family %s at scale %v: %v", name, scale, err)
			}
		}
	}
}

// The bursty phase-shifted interference must actually hurt: throughput
// under bursts stays below the undisturbed run, and the dynamic
// asymmetry-aware scheduler keeps more of it than random stealing.
func TestBurstFamilyShape(t *testing.T) {
	f, _ := Lookup("burst-sweep")
	s := f.Spec(0.05)
	s.Points = ParallelismPoints(2)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		res.WriteTable(os.Stdout)
	}
	clean := s
	clean.Name = "burst-sweep/clean"
	clean.Disturb = nil
	cleanRes, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"RWS", "DAM-C"} {
		with := res.Cell(pol, "P2").Run().Throughput
		without := cleanRes.Cell(pol, "P2").Run().Throughput
		if with >= without {
			t.Errorf("%s: bursts did not hurt (%.0f with vs %.0f without)", pol, with, without)
		}
	}
	rws := res.Cell("RWS", "P2").Run().Throughput
	damc := res.Cell("DAM-C", "P2").Run().Throughput
	if damc <= rws {
		t.Errorf("DAM-C (%.0f) should beat RWS (%.0f) under bursty interference", damc, rws)
	}
}

// The thermal throttle must flip the platform's asymmetry mid-run: the run
// slows down versus an unthrottled one, and the dynamic scheduler still
// beats the fixed-asymmetry one, which keeps trusting the pre-throttle
// fast cluster.
func TestThrottleFamilyShape(t *testing.T) {
	f, _ := Lookup("throttle-ramp")
	s := f.Spec(0.05)
	s.Points = ParallelismPoints(4)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		res.WriteTable(os.Stdout)
	}
	clean := s
	clean.Name = "throttle-ramp/clean"
	clean.Disturb = nil
	cleanRes, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	with := res.Cell("DAM-C", "P4").Run().Throughput
	without := cleanRes.Cell("DAM-C", "P4").Run().Throughput
	if with >= without {
		t.Errorf("throttle did not hurt DAM-C (%.0f with vs %.0f without)", with, without)
	}
	fa := res.Cell("FA", "P4").Run().Throughput
	damc := res.Cell("DAM-C", "P4").Run().Throughput
	if damc <= fa {
		t.Errorf("DAM-C (%.0f) should beat fixed-asymmetry FA (%.0f) once the fast cluster throttles", damc, fa)
	}
}

// The scale-out family runs 16–64-core platforms; smoke the largest at
// tiny scale and check the sampled search keeps up with the full search.
func TestScaleOutFamilyRuns(t *testing.T) {
	f, _ := Lookup("scaleout-64")
	s := f.Spec(0.04)
	s.Points = ParallelismPoints(16)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Topo.NumCores() != 64 || res.Topo.NumClusters() != 8 {
		t.Fatalf("platform is %s, want 64 cores in 8 clusters", res.Topo)
	}
	if testing.Verbose() {
		res.WriteTable(os.Stdout)
	}
	full := res.Cell("DAM-C", "P16").Run().Throughput
	sampled := res.Cell("DAM-C~32", "P16").Run().Throughput
	if full <= 0 || sampled <= 0 {
		t.Fatalf("zero throughput: full=%v sampled=%v", full, sampled)
	}
	if sampled < 0.5*full {
		t.Errorf("sampled search lost too much: %.0f vs full %.0f", sampled, full)
	}
}
