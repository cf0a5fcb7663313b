package main

import (
	"testing"

	"coolopt/internal/core"
	"coolopt/internal/roomapi"
)

// goodPlan returns a valid served plan for load on the profile: the
// exact closed form over the first k machines.
func goodPlan(t *testing.T, p *core.Profile, load float64, k int) *roomapi.PlanResult {
	t.Helper()
	on := make([]int, k)
	for i := range on {
		on[i] = i
	}
	plan, err := p.SolveBounded(on, load)
	if err != nil {
		t.Fatal(err)
	}
	return &roomapi.PlanResult{Epoch: 0, On: plan.On, Loads: plan.Loads, TAcC: float64(plan.TAcC)}
}

func TestCheckPlanRoutesBadResponses(t *testing.T) {
	p := syntheticProfile(16, 1)
	profiles := NewProfiles(0, p)
	const load = 4.0
	req := Request{Load: load, Avoid: []int{12}}

	cases := []struct {
		name    string
		mutate  func(*roomapi.PlanResult)
		req     Request
		minEp   uint64
		verdict Verdict
		loadErr bool
	}{
		{name: "valid", mutate: func(*roomapi.PlanResult) {}, req: req, verdict: OK},
		{
			name: "T_max breach",
			// A supply temperature far above the plan's own heats every
			// loaded machine past T_max.
			mutate:  func(r *roomapi.PlanResult) { r.TAcC += 30 },
			req:     req,
			verdict: FailInvalid,
		},
		{
			name: "avoided machine on",
			mutate: func(r *roomapi.PlanResult) {
				r.On = append(r.On, 12)
			},
			req:     req,
			verdict: FailAvoid,
		},
		{
			name: "avoided machine loaded",
			mutate: func(r *roomapi.PlanResult) {
				r.Loads[12] = 0.1
			},
			req:     req,
			verdict: FailAvoid,
		},
		{
			name:    "wrong Σloads",
			mutate:  func(*roomapi.PlanResult) {},
			req:     Request{Load: load + 0.5, Avoid: req.Avoid},
			verdict: OK,
			loadErr: true,
		},
		{
			name:    "shed load accounted",
			mutate:  func(r *roomapi.PlanResult) { r.ShedLoad = 0.5 },
			req:     Request{Load: load + 0.5, Avoid: req.Avoid},
			verdict: OK,
		},
		{
			name:    "stale epoch",
			mutate:  func(*roomapi.PlanResult) {},
			req:     req,
			minEp:   1,
			verdict: FailEpoch,
		},
		{
			name:    "unknown epoch",
			mutate:  func(r *roomapi.PlanResult) { r.Epoch = 7 },
			req:     req,
			verdict: FailEpoch,
		},
		{
			name:    "short loads",
			mutate:  func(r *roomapi.PlanResult) { r.Loads = r.Loads[:8] },
			req:     req,
			verdict: FailInvalid,
		},
	}
	tally := &Tally{}
	wantCounts := map[Verdict]int64{}
	var wantLoadErrs int64
	for _, tc := range cases {
		res := goodPlan(t, p, load, 8)
		tc.mutate(res)
		v, loadErr := checkPlan(profiles, tc.req, res, tc.minEp)
		if v != tc.verdict || loadErr != tc.loadErr {
			t.Errorf("%s: got (%v, load error %v), want (%v, %v)", tc.name, v, loadErr, tc.verdict, tc.loadErr)
		}
		tally.Add(v, loadErr)
		wantCounts[tc.verdict]++
		if tc.loadErr {
			wantLoadErrs++
		}
	}
	for v := Verdict(0); v < numVerdicts; v++ {
		if got := tally.Count(v); got != wantCounts[v] {
			t.Errorf("counter %v = %d, want %d", v, got, wantCounts[v])
		}
	}
	if got := tally.LoadErrors(); got != wantLoadErrs {
		t.Errorf("load errors = %d, want %d", got, wantLoadErrs)
	}
	if got, want := tally.Failed(), int64(len(cases))-wantCounts[OK]; got != want {
		t.Errorf("failed = %d, want %d", got, want)
	}
}

func TestCheckPlanUsesEpochProfile(t *testing.T) {
	p0 := syntheticProfile(16, 1)
	res := goodPlan(t, p0, 4, 8)
	// Generation 1 makes machine 0 run much hotter: the same plan is
	// valid against epoch 0 and a T_max breach against epoch 1.
	hot := core.MachineDelta{ID: 0, Machine: p0.Machines[0]}
	hot.Machine.Gamma += 20
	profiles := NewProfiles(0, p0)
	profiles.Set(1, applyBatch(p0, []core.MachineDelta{hot}))
	if v, _ := checkPlan(profiles, Request{Load: 4}, res, 0); v != OK {
		t.Fatalf("epoch 0: %v, want ok", v)
	}
	res.Epoch = 1
	if v, _ := checkPlan(profiles, Request{Load: 4}, res, 0); v != FailInvalid {
		t.Fatalf("epoch 1: %v, want invalid", v)
	}
}
