package main

import (
	"math"
	"testing"
)

// auditOnce starts a fresh stack and returns its plan_w_per_unit.
func auditOnce(t *testing.T, workload string, n int, seed int64) float64 {
	t.Helper()
	st, err := StartStack(n, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cl := NewClient(st.Base)
	defer cl.Close()
	tally := &Tally{}
	wpu := audit(cl, st, NewProfiles(st.Engine.Epoch(), st.Profile), tally, Config{Workload: workload, N: n, Seed: seed})
	if tally.Failed() != 0 || math.IsNaN(wpu) {
		t.Fatalf("%s audit: %d of %d requests failed (%s)", workload, tally.Failed(), tally.Attempted(), tally.breakdown())
	}
	return wpu
}

func TestAuditIsBitIdentical(t *testing.T) {
	const n = 256
	for _, w := range []string{"hot", "failover"} {
		a, b := auditOnce(t, w, n, 5), auditOnce(t, w, n, 5)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: plan_w_per_unit %v then %v on one seed", w, a, b)
		}
		if c := auditOnce(t, w, n, 6); math.Float64bits(a) == math.Float64bits(c) {
			t.Errorf("%s: seeds 5 and 6 audit to the same %v", w, a)
		}
	}
}
