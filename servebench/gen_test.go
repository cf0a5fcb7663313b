package main

import (
	"reflect"
	"testing"

	"coolopt/internal/core"
)

// inputs collects every generated input of one workload and seed.
type inputs struct {
	Profile  *core.Profile
	Requests []Request
	Audit    []Request
	Batches  [][]core.MachineDelta
}

func generate(t *testing.T, workload string, n int, seed int64) inputs {
	t.Helper()
	s, err := NewStream(workload, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	in := inputs{Profile: syntheticProfile(n, seed), Audit: AuditSet(workload, n, seed)}
	for i := 0; i < 500; i++ {
		in.Requests = append(in.Requests, s.Next())
	}
	src := NewDriftSource(in.Profile, seed)
	for i := 0; i < 20; i++ {
		in.Batches = append(in.Batches, src.Next())
	}
	return in
}

func TestGenerationIsSeeded(t *testing.T) {
	const n = 512
	for _, w := range []string{"hot", "failover", "drift"} {
		a, b := generate(t, w, n, 7), generate(t, w, n, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed generated two different input sets", w)
		}
		c := generate(t, w, n, 8)
		if reflect.DeepEqual(a.Profile, c.Profile) {
			t.Errorf("%s: seeds 7 and 8 generated the same profile", w)
		}
		if reflect.DeepEqual(a.Requests, c.Requests) {
			t.Errorf("%s: seeds 7 and 8 generated the same requests", w)
		}
		if reflect.DeepEqual(a.Audit, c.Audit) {
			t.Errorf("%s: seeds 7 and 8 generated the same audit set", w)
		}
		if reflect.DeepEqual(a.Batches, c.Batches) {
			t.Errorf("%s: seeds 7 and 8 generated the same drift batches", w)
		}
	}
}

func TestGeneratedInputsAreValid(t *testing.T) {
	const n = 512
	p := syntheticProfile(n, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewStream("failover", n, 3)
	if err != nil {
		t.Fatal(err)
	}
	pods := podRanges(n)
	for i := 0; i < 2000; i++ {
		req := s.Next()
		if req.ID != i {
			t.Fatalf("request %d has ID %d", i, req.ID)
		}
		if req.Load < loadLo*n || req.Load > loadHi*n {
			t.Fatalf("request %d: load %v outside the load range", i, req.Load)
		}
		if k := len(req.Avoid); k < 1 || k > maxAvoid {
			t.Fatalf("request %d: %d avoided machines", i, k)
		}
		// At least half the list sits in one pod.
		best := 0
		for _, pod := range pods {
			in := 0
			for _, id := range req.Avoid {
				if id >= pod[0] && id < pod[1] {
					in++
				}
			}
			best = max(best, in)
		}
		if 2*best < len(req.Avoid) {
			t.Fatalf("request %d: avoid list %v not concentrated in a pod", i, req.Avoid)
		}
	}
	src := NewDriftSource(p, 3)
	live := p
	for b := 0; b < 50; b++ {
		batch := src.Next()
		if len(batch) != driftBatch || core.PowerDrift(batch) {
			t.Fatalf("batch %d: %d deltas, power drift %v", b, len(batch), core.PowerDrift(batch))
		}
		live = applyBatch(live, batch)
		if err := live.Validate(); err != nil {
			t.Fatalf("batch %d leaves an invalid profile: %v", b, err)
		}
	}
}
