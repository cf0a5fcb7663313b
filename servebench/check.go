package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"coolopt/internal/core"
	"coolopt/internal/roomapi"
	"coolopt/internal/units"
)

// Verdict classifies one /v1/plan exchange. Every verdict but OK counts
// as a failed request.
type Verdict int

const (
	OK Verdict = iota
	// FailTransport: the request or the body read failed.
	FailTransport
	// FailStatus: the server answered something other than 200.
	FailStatus
	// FailDecode: the body is not a PlanResult.
	FailDecode
	// FailEpoch: the plan comes from a generation older than the one
	// committed before the request was sent, or from one never installed.
	FailEpoch
	// FailAvoid: a machine on the request's avoid list is on or loaded.
	FailAvoid
	// FailInvalid: Profile.ValidatePlan rejects the plan against its own
	// Σloads — a T_max breach, a load outside [0, 1], or load on an off
	// machine.
	FailInvalid
	numVerdicts
)

var verdictNames = [numVerdicts]string{"ok", "transport", "status", "decode", "epoch", "avoid", "invalid"}

func (v Verdict) String() string { return verdictNames[v] }

// Tally counts verdicts and load-accounting errors; safe for concurrent
// use.
type Tally struct {
	counts [numVerdicts]atomic.Int64
	// loadErrors counts 200 responses whose Σloads + shedLoad misses the
	// requested load by more than 1e-6·n: a neighbouring bucket's plan
	// served from the cache. Load accounting is reported on its own, not
	// as a failure.
	loadErrors atomic.Int64
}

// Add records one checked exchange.
func (t *Tally) Add(v Verdict, loadErr bool) {
	t.counts[v].Add(1)
	if loadErr {
		t.loadErrors.Add(1)
	}
}

// Count returns the number of exchanges with verdict v.
func (t *Tally) Count(v Verdict) int64 { return t.counts[v].Load() }

// Attempted returns the number of exchanges recorded.
func (t *Tally) Attempted() int64 {
	var sum int64
	for v := range t.counts {
		sum += t.counts[v].Load()
	}
	return sum
}

// Failed returns the number of exchanges with a failing verdict.
func (t *Tally) Failed() int64 { return t.Attempted() - t.Count(OK) }

// breakdown lists the failing verdicts with their counts.
func (t *Tally) breakdown() string {
	out := ""
	for v := Verdict(1); v < numVerdicts; v++ {
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%s %d", v, t.Count(v))
	}
	return out
}

// LoadErrors returns the number of 200 responses with load-accounting
// errors.
func (t *Tally) LoadErrors() int64 { return t.loadErrors.Load() }

// Profiles maps each installed generation to the profile it serves, so a
// plan is validated against the model its epoch claims.
type Profiles struct {
	mu sync.RWMutex
	m  map[uint64]*core.Profile
}

// NewProfiles starts the map with the set-up generation.
func NewProfiles(epoch uint64, p *core.Profile) *Profiles {
	return &Profiles{m: map[uint64]*core.Profile{epoch: p}}
}

// Set records the profile of a generation about to be installed.
func (ps *Profiles) Set(epoch uint64, p *core.Profile) {
	ps.mu.Lock()
	ps.m[epoch] = p
	ps.mu.Unlock()
}

// Get returns the profile of a generation, or nil if it was never
// installed.
func (ps *Profiles) Get(epoch uint64) *core.Profile {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return ps.m[epoch]
}

// checkPlan checks one decoded 200 response to req. minEpoch is the
// generation committed before the request was sent. It returns the
// verdict and whether the load accounting is off; the accounting is
// judged only for responses that pass every other check.
func checkPlan(profiles *Profiles, req Request, res *roomapi.PlanResult, minEpoch uint64) (Verdict, bool) {
	p := profiles.Get(res.Epoch)
	if res.Epoch < minEpoch || p == nil {
		return FailEpoch, false
	}
	n := p.Size()
	if len(res.Loads) != n {
		return FailInvalid, false
	}
	for _, id := range req.Avoid {
		if res.Loads[id] != 0 {
			return FailAvoid, false
		}
	}
	if len(req.Avoid) > 0 {
		avoided := make(map[int]bool, len(req.Avoid))
		for _, id := range req.Avoid {
			avoided[id] = true
		}
		for _, id := range res.On {
			if avoided[id] {
				return FailAvoid, false
			}
		}
	}
	plan := &core.Plan{On: res.On, Loads: res.Loads, TAcC: units.Celsius(res.TAcC)}
	sum := 0.0
	for _, l := range res.Loads {
		sum += l
	}
	if p.ValidatePlan(plan, sum, 1e-6) != nil {
		return FailInvalid, false
	}
	return OK, math.Abs(sum+res.ShedLoad-req.Load) > 1e-6*float64(n)
}
