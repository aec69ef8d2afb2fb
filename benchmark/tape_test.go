package main

import "testing"

// Same seed, same tape, byte for byte; another seed, another tape.
func TestTapeDigest(t *testing.T) {
	a := GenerateTape(1, "lifecycle", 4096, 10000, 8)
	b := GenerateTape(1, "lifecycle", 4096, 10000, 8)
	c := GenerateTape(2, "lifecycle", 4096, 10000, 8)
	if a.Digest != b.Digest {
		t.Errorf("same seed gave digests %s and %s", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a.Digest)
	}
	if d := GenerateTape(1, "engine", 4096, 10000, 8); d.Digest == a.Digest {
		t.Error("two tape families gave the same digest")
	}
	if want := 4096 + 2*10000 + a.Churn + 2*burstCycles; len(a.Points) != want {
		t.Errorf("tape holds %d points, want %d", len(a.Points), want)
	}
}

// serve-lifecycle and cluster-lifecycle must play the same tape, or their
// rows do not subtract to the price of the coordinator tier.
func TestLifecycleWorkloadsShareOneTape(t *testing.T) {
	serve, _ := specByName("serve-lifecycle")
	cluster, _ := specByName("cluster-lifecycle")
	var digests []string
	for _, s := range []spec{serve, cluster} {
		_, total := tapeCycles(s, defaultSeconds, defaultReps)
		digests = append(digests, GenerateTape(3, s.tape, s.workers, total, s.churnEvery).Digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("serve-lifecycle tape %s, cluster-lifecycle tape %s", digests[0], digests[1])
	}
}

// A shorter tape is a prefix of a longer one (each stream has its own
// derived source), so the ladder really plays the lifecycle tape's head.
func TestTapePrefix(t *testing.T) {
	short := GenerateTape(5, "lifecycle", 1024, 100, 0)
	long := GenerateTape(5, "lifecycle", 1024, 5000, 8)
	for i := 0; i < 100; i++ {
		if short.Points[short.taskRef(i)] != long.Points[long.taskRef(i)] ||
			short.Points[short.returnRef(i)] != long.Points[long.returnRef(i)] {
			t.Fatalf("cycle %d differs between the short and the long tape", i)
		}
	}
}

func TestBatchTapeCyclesAreWholePeriods(t *testing.T) {
	s, _ := specByName("batch-window")
	warm, total := tapeCycles(s, defaultSeconds, defaultReps)
	if warm%batchPeriod != 0 || total%batchPeriod != 0 || total <= warm {
		t.Errorf("batch tape has %d warm-up and %d total cycles; both must be whole %d-task periods", warm, total, batchPeriod)
	}
	n := 0
	for _, b := range batchPattern() {
		n += b
	}
	if n != batchPeriod {
		t.Errorf("batch pattern sums to %d, want %d", n, batchPeriod)
	}
}
