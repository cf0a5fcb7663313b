package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"coolopt/internal/core"
)

// Every input the benchmark sends is derived here from the workload
// name, the room size and the seed argument alone: the profile, the
// request streams, the avoid lists, the drift batches and the audit set.
// Each consumer draws from its own sub-stream, so adding draws to one
// never shifts another, and nothing depends on timing: the i-th request
// of a stream is the same whichever client sends it and whenever.

const (
	// hotLevels is the number of distinct demand levels the hot mix
	// polls, drawn Zipf(hotZipfS) by popularity rank.
	hotLevels = 256
	hotZipfS  = 1.3
	// hotJitter is the half-width of the measured-demand jitter, in
	// machine-utilization units, added to every hot request.
	hotJitter = 0.5
	// loadLo and loadHi bound demand as a share of the room.
	loadLo, loadHi = 0.1, 0.8
	// maxAvoid is the largest failover avoid list.
	maxAvoid = 8
	// driftBatch is the number of machines per re-profiling batch.
	driftBatch = 4
	// auditSize is the number of audit requests behind plan_w_per_unit.
	auditSize = 32
)

// Sub-stream tags for subSeed.
const (
	tagProfile = iota + 1
	tagStream
	tagDrift
	tagAudit
)

// subSeed derives an independent generator seed from the run seed and a
// tag (SplitMix64 finalizer).
func subSeed(seed int64, tag int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(tag)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func newRand(seed int64, tag int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, tag)))
}

// syntheticProfile is a seeded n-machine room: the cluster-wide power and
// cooling model of the paper's rack, with per-machine Eq. 8 coefficients
// that trend across the room (a cold aisle end and a hot one) plus seeded
// ±5 % jitter.
func syntheticProfile(n int, seed int64) *core.Profile {
	rng := newRand(seed, tagProfile)
	machines := make([]core.MachineProfile, n)
	for i := range machines {
		h := float64(i) / float64(n)
		jitter := 0.05 * (2*rng.Float64() - 1)
		machines[i] = core.MachineProfile{
			Alpha: 1.0,
			Beta:  0.46 * (1 + 0.1*h + jitter),
			Gamma: 0.5 + 2.2*h - 10*jitter,
		}
	}
	return &core.Profile{
		W1: 52, W2: 34, CoolFactor: 150, SetPointC: 31,
		TMaxC: 65, TAcMinC: 10, TAcMaxC: 25,
		Machines: machines,
	}
}

// Request is one generated /v1/plan query.
type Request struct {
	// ID is the request's position in its stream; audit requests are
	// numbered on their own and warm-up requests are negative.
	ID    int
	Load  float64
	Avoid []int
}

// Query renders the request as the /v1/plan query string. Loads are
// formatted with the shortest exact representation, so the server
// parses back the bit pattern that was generated.
func (r Request) Query() string {
	q := "load=" + strconv.FormatFloat(r.Load, 'g', -1, 64)
	if len(r.Avoid) > 0 {
		parts := make([]string, len(r.Avoid))
		for i, id := range r.Avoid {
			parts[i] = strconv.Itoa(id)
		}
		q += "&avoid=" + strings.Join(parts, ",")
	}
	return q
}

// podRanges returns the [lo, hi) machine ranges of the pod partition the
// zero-option core.NewPodSnapshot builds for an n-machine room: the
// calibrated pod size, balanced contiguous pods.
func podRanges(n int) [][2]int {
	size := core.DefaultCalibration().PodSizeFor(n)
	count := (n + size - 1) / size
	if count < 1 {
		count = 1
	}
	base, extra := n/count, n%count
	out := make([][2]int, count)
	lo := 0
	for j := range out {
		hi := lo + base
		if j < extra {
			hi++
		}
		out[j] = [2]int{lo, hi}
		lo = hi
	}
	return out
}

// Stream is a workload's request sequence. Next is safe for concurrent
// clients; the sequence itself depends only on the seed.
type Stream struct {
	n    int
	pods [][2]int

	mu   sync.Mutex
	rng  *rand.Rand
	zipf *rand.Zipf
	// levels holds the hot mix's demand levels in popularity order.
	levels []float64
	next   int
	seen   map[string]bool // failover: keys already issued
}

// NewStream returns the request stream of a workload ("hot", "failover"
// or "drift"; drift polls the hot mix).
func NewStream(workload string, n int, seed int64) (*Stream, error) {
	s := &Stream{n: n, pods: podRanges(n), rng: newRand(seed, tagStream)}
	switch workload {
	case "hot", "drift":
		s.levels = make([]float64, hotLevels)
		for i := range s.levels {
			s.levels[i] = uniformLoad(s.rng, n)
		}
		s.zipf = rand.NewZipf(s.rng, hotZipfS, 1, hotLevels-1)
	case "failover":
		s.seen = make(map[string]bool)
	default:
		return nil, fmt.Errorf("unknown workload %q (want hot, failover or drift)", workload)
	}
	return s, nil
}

func uniformLoad(rng *rand.Rand, n int) float64 {
	return float64(n) * (loadLo + (loadHi-loadLo)*rng.Float64())
}

// WarmSet returns the requests that fill the plan cache before timing:
// each hot level at both ends of its jitter range, which between them
// reach every load bucket the level's requests can fall in. The
// failover stream has nothing to warm.
func (s *Stream) WarmSet() []Request {
	var out []Request
	for i, level := range s.levels {
		out = append(out,
			Request{ID: -2*i - 1, Load: level - hotJitter},
			Request{ID: -2*i - 2, Load: level + hotJitter})
	}
	return out
}

// Next returns the next request of the stream.
func (s *Stream) Next() Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	req := Request{ID: s.next}
	s.next++
	if s.zipf != nil {
		req.Load = s.levels[s.zipf.Uint64()] + hotJitter*(2*s.rng.Float64()-1)
		return req
	}
	// Failover: a fresh avoid list and load per request. Redraw on the
	// (vanishingly rare) repeat of a cache key, so every request misses.
	for {
		req.Load = uniformLoad(s.rng, s.n)
		req.Avoid = avoidList(s.rng, s.n, s.pods)
		key := fmt.Sprint(math.Round(req.Load/(0.001*float64(s.n))), req.Avoid)
		if !s.seen[key] {
			s.seen[key] = true
			return req
		}
	}
}

// avoidList draws 1–maxAvoid distinct failed machines: half (rounded up)
// concentrated in one pod, the rest spread over the room. Sorted.
func avoidList(rng *rand.Rand, n int, pods [][2]int) []int {
	k := 1 + rng.Intn(maxAvoid)
	pod := pods[rng.Intn(len(pods))]
	picked := make(map[int]bool, k)
	out := make([]int, 0, k)
	add := func(lo, hi int) {
		for {
			id := lo + rng.Intn(hi-lo)
			if !picked[id] {
				picked[id] = true
				out = append(out, id)
				return
			}
		}
	}
	conc := (k + 1) / 2
	if conc > pod[1]-pod[0] {
		conc = pod[1] - pod[0]
	}
	for i := 0; i < conc; i++ {
		add(pod[0], pod[1])
	}
	for len(out) < k {
		add(0, n)
	}
	sort.Ints(out)
	return out
}

// AuditSet returns the fixed requests behind plan_w_per_unit: demand
// stratified over the load range (one request per stratum, so no two
// share a cache bucket), with the workload's avoid-list shape on
// failover.
func AuditSet(workload string, n int, seed int64) []Request {
	rng := newRand(seed, tagAudit)
	pods := podRanges(n)
	out := make([]Request, auditSize)
	for j := range out {
		u := (float64(j) + rng.Float64()) / auditSize
		out[j] = Request{ID: j, Load: float64(n) * (loadLo + (loadHi-loadLo)*u)}
		if workload == "failover" {
			out[j].Avoid = avoidList(rng, n, pods)
		}
	}
	return out
}

// DriftSource yields the re-profiler's thermal-only drift batches. Each
// batch re-fits driftBatch distinct machines to coefficients within a few
// per cent of their original profile (absolute values, so batches stay
// valid however many land on the same machine), and Apply tracks the
// profile every installed generation serves.
type DriftSource struct {
	base *core.Profile
	rng  *rand.Rand
}

// NewDriftSource returns the drift batches for a room profile.
func NewDriftSource(base *core.Profile, seed int64) *DriftSource {
	return &DriftSource{base: base, rng: newRand(seed, tagDrift)}
}

// Next returns the next batch.
func (d *DriftSource) Next() []core.MachineDelta {
	n := d.base.Size()
	batch := make([]core.MachineDelta, 0, driftBatch)
	picked := make(map[int]bool, driftBatch)
	for len(batch) < driftBatch {
		id := d.rng.Intn(n)
		if picked[id] {
			continue
		}
		picked[id] = true
		m := d.base.Machines[id]
		m.Beta *= 1 + 0.02*(2*d.rng.Float64()-1)
		m.Gamma += 0.2 * (2*d.rng.Float64() - 1)
		batch = append(batch, core.MachineDelta{ID: id, Machine: m})
	}
	return batch
}

// applyBatch returns a copy of p with a thermal-only batch applied: the
// profile the engine serves after installing it.
func applyBatch(p *core.Profile, batch []core.MachineDelta) *core.Profile {
	out := *p
	out.Machines = append([]core.MachineProfile(nil), p.Machines...)
	for _, d := range batch {
		out.Machines[d.ID] = d.Machine
	}
	return &out
}
