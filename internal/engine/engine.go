// Package engine is the concurrent plan-serving layer between the frozen
// model (core.Snapshot / core.PodSnapshot) and whatever consumes plans —
// the hardened controller, the HTTP serving surface, and load-generation
// benchmarks.
//
// The design is the plant-model/optimizer split MPC controllers draw: the
// mutable simulator keeps its Clone() discipline, while planning runs
// entirely on immutable snapshots published through an RCU-style atomic
// pointer. Readers never lock; a re-profile or failure-driven model change
// swaps the pointer with Install/InstallHierarchical and in-flight queries
// simply finish against the state they started on. A single-flight,
// bounded LRU plan cache keyed by (snapshot epoch, request) coalesces
// identical concurrent queries — under serving load many clients ask for
// the same (method, load) point, and one solve can answer all of them.
//
// Rooms past the whole-room table threshold serve the paper's method #8
// through the two-level pod planner (core.PodSnapshot) with its bounded
// optimality gap; smaller rooms keep the exact tables. Requests can pin
// either path with Request.Mode.
//
//coolopt:deterministic
//coolopt:errcontract
package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"coolopt/internal/baseline"
	"coolopt/internal/core"
	"coolopt/internal/units"
)

// cacheCap bounds the plan cache; beyond it the least-recently-used
// entries are evicted. A cached plan holds two slices of at most n
// elements (at most 16n bytes: 64 KB at n=4096, 4 MB at n=262144) and,
// once it has been hit, the wire fragment a serving layer memoizes in
// its Memo (2–6 bytes a machine for roomapi's JSON: 8–25 KB at n=4096).
// A full cache is therefore up to ~45 MB at n=4096 but reaches a few GB
// at n=262144.
const cacheCap = 512

// HierThreshold is the room size at and above which auto mode serves the
// paper's method #8 hierarchically when pod tables are installed. Below
// it the exact whole-room tables are fast enough that the bounded gap
// buys nothing. The value comes from the measured pod-sizing calibration
// curve (core.DefaultCalibration, regenerated by `paperbench
// -podsize-sweep`) rather than a hard-coded constant; tests may override
// it, production code should not.
var HierThreshold = core.DefaultCalibration().HierThreshold

// PlanMode selects the consolidation path for the paper's method #8.
type PlanMode int

const (
	// ModeAuto (the zero value) picks hierarchically when pod tables are
	// installed and the room is at least HierThreshold machines (or the
	// engine is pod-only).
	ModeAuto PlanMode = iota
	// ModeExact forces the whole-room tables.
	ModeExact
	// ModeHier forces the two-level pod planner.
	ModeHier
)

// Request describes one planning query.
type Request struct {
	// Method selects the planning scenario; the zero value means the
	// paper's solution (#8, consolidation + AC control).
	Method baseline.Method
	// Load is the total demand in machine-utilization units.
	Load float64
	// Mode pins the exact or hierarchical consolidation path for method
	// #8; the zero value picks automatically. Other methods ignore it.
	Mode PlanMode
	// Avoid lists machine IDs to plan around (detected failures). A
	// non-empty list routes the query to the degraded planner.
	Avoid []int
	// Safe asks for a CRAC-safe-mode plan: no consolidation, loads
	// shed to what AchievedSupplyC can carry.
	Safe bool
	// AchievedSupplyC is the supply temperature the room actually
	// delivers (°C), used only when Safe is set: a stuck CRAC makes the
	// commanded value meaningless.
	AchievedSupplyC float64
	// MarginC is the thermal cushion (°C) added to the supply
	// temperature when computing shed capacity.
	MarginC float64
}

// normalize defaults the method and canonicalizes the avoid list (sorted,
// deduplicated copy) so equivalent requests share a cache key.
func (r Request) normalize() Request {
	if r.Method == 0 {
		r.Method = baseline.OptimalACCons
	}
	if r.Method != baseline.OptimalACCons {
		r.Mode = ModeAuto // mode only disambiguates #8; canonicalize the rest
	}
	if len(r.Avoid) > 0 {
		avoid := append([]int(nil), r.Avoid...)
		sort.Ints(avoid)
		out := avoid[:1]
		for _, i := range avoid[1:] {
			if i != out[len(out)-1] {
				out = append(out, i)
			}
		}
		r.Avoid = out
	}
	return r
}

// cacheKey is the cache / single-flight identity of a normalized request
// under one snapshot epoch. By default the load is quantized to 0.1 % of
// the pool capacity so near-identical requests coalesce onto hot cache
// entries: the first request in a bucket computes with its exact load and
// its answer serves the whole bucket (an error of at most one bucket of
// capacity). With exact keys (WithExactCacheKeys) the load is keyed by
// its bit pattern — the cache then distinguishes loads that differ in the
// last ulp, which bit-exactness tests rely on. All other float fields are
// always keyed bit-exact. The key is a comparable struct, so a hit builds
// it without allocating; only a non-empty avoid list is encoded, into
// the avoid string.
type cacheKey struct {
	epoch          uint64
	method         baseline.Method
	mode           PlanMode
	load           int64 // quantized bucket, or the load's bits with exact keys
	safe           bool
	supply, margin uint64 // AchievedSupplyC and MarginC bit patterns
	avoid          string // sorted avoid IDs, comma-separated; "" when none
}

// key builds the cacheKey of a normalized request.
func (r Request) key(epoch uint64, machines int, exact bool) cacheKey {
	k := cacheKey{
		epoch: epoch, method: r.Method, mode: r.Mode, safe: r.Safe,
		supply: math.Float64bits(r.AchievedSupplyC), margin: math.Float64bits(r.MarginC),
	}
	if exact {
		k.load = int64(math.Float64bits(r.Load))
	} else {
		k.load = quantizeLoad(r.Load, machines)
	}
	if len(r.Avoid) > 0 {
		buf := make([]byte, 0, 6*len(r.Avoid))
		for j, i := range r.Avoid {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(i), 10)
		}
		k.avoid = string(buf)
	}
	return k
}

// quantizeLoad buckets a load to 0.1 % of the pool capacity (machines ×
// one utilization unit). Positive loads below half a bucket round up to
// bucket 1 rather than colliding with the all-off bucket 0.
func quantizeLoad(load float64, machines int) int64 {
	q := 0.001 * float64(machines)
	if q <= 0 {
		return int64(math.Float64bits(load)) // degenerate pool; fall back to bits
	}
	b := int64(math.Round(load / q))
	if b == 0 && load > 0 {
		b = 1
	}
	return b
}

// Response is a served plan plus the accounting the caller needs to act
// on it. The embedded Plan is shared with the cache: treat it as
// read-only.
type Response struct {
	// Plan is the control decision.
	Plan *core.Plan
	// Method is the scenario that produced it (after defaulting).
	Method baseline.Method
	// Epoch identifies the snapshot the plan was computed against.
	Epoch uint64
	// Hierarchical reports the plan came from the two-level pod planner
	// (bounded optimality gap) rather than the exact tables.
	Hierarchical bool
	// Degraded reports the plan was computed around failed machines.
	Degraded bool
	// ShedLoad is the demand (machine-units) the plan does NOT carry
	// because capacity ran out; zero when demand is fully served.
	ShedLoad float64
	// Capacity is the pool capacity the shed was computed against;
	// meaningful only when ShedLoad > 0.
	Capacity float64
	// Cached reports the response came from the plan cache; Shared that
	// it was coalesced onto a concurrent identical query.
	Cached bool
	Shared bool
	// Memo is the plan's memo slot (see Memo); nil on responses built
	// outside the engine.
	Memo *Memo
}

// Memo is an opaque slot a serving layer may fill once with a derived
// form of one computed plan — roomapi keeps the plan's encoded wire
// fragment there, so a cached answer is encoded once instead of on
// every hit (it fills the slot on the first hit or coalesced answer,
// never on a plain miss, so a plan that is never asked for again keeps
// an empty slot). compute creates one per computed Response; Plan copies
// Response by value, so every cache hit and coalesced copy of the answer
// shares it, and it is dropped with its cache entry when an install
// publishes a new generation. The engine never reads it.
type Memo struct{ b atomic.Pointer[[]byte] }

// Load returns the memoized bytes, or nil if nothing is stored yet or m
// is nil. Callers must not modify the result.
func (m *Memo) Load() []byte {
	if m == nil {
		return nil
	}
	if p := m.b.Load(); p != nil {
		return *p
	}
	return nil
}

// Store memoizes b unless a value is already stored (concurrent first
// fillers derive identical bytes, so the first one wins). A nil m
// ignores the store. The caller must not modify b afterwards.
func (m *Memo) Store(b []byte) {
	if m != nil {
		m.b.CompareAndSwap(nil, &b)
	}
}

// Stats is a point-in-time view of the engine's cache and topology,
// surfaced by pland's /v1/stats.
type Stats struct {
	// CacheHits, CacheMisses, CacheEvictions and CacheShared count plan
	// cache hits, computed misses, LRU evictions, and queries coalesced
	// onto a concurrent identical computation since the engine started.
	CacheHits      uint64 `json:"cacheHits"`
	CacheMisses    uint64 `json:"cacheMisses"`
	CacheEvictions uint64 `json:"cacheEvictions"`
	CacheShared    uint64 `json:"cacheShared"`
	// CacheEntries and CacheCapacity describe the current cache.
	CacheEntries  int `json:"cacheEntries"`
	CacheCapacity int `json:"cacheCapacity"`
	// QuantizedKeys reports load-bucketed cache keys (the default).
	QuantizedKeys bool `json:"quantizedKeys"`
	// Epoch and Machines describe the installed model; Pods and PodDepth
	// are zero without pod tables (PodDepth is the planner tree's depth:
	// 2 = classic pod split, 3 = pods of pods). Hierarchical reports
	// whether auto mode serves method #8 through the pod planner.
	Epoch        uint64 `json:"epoch"`
	Machines     int    `json:"machines"`
	Pods         int    `json:"pods"`
	PodDepth     int    `json:"podDepth"`
	Hierarchical bool   `json:"hierarchical"`
	// Overload protection: InFlight is the current computation count,
	// MaxInFlight the admission bound (0 = unbounded), ShedOverload the
	// requests refused with ErrOverloaded, Breaker the breaker state
	// (closed / open / half-open), Installing whether a snapshot
	// build/install is in progress, and Ready the /v1/readyz verdict.
	InFlight     int    `json:"inFlight"`
	MaxInFlight  int    `json:"maxInFlight"`
	ShedOverload uint64 `json:"shedOverload"`
	Breaker      string `json:"breaker"`
	Installing   bool   `json:"installing"`
	Ready        bool   `json:"ready"`
	// Install accounting: Installs counts every published generation,
	// PipelinedInstalls the ones committed through the
	// PrepareInstall/CommitInstall pipeline (install.go), split into
	// PatchInstalls (incremental Snapshot.Patch builds) and
	// RebuildInstalls (from-scratch builds). StaleInstalls counts prepared
	// generations refused at commit because another install won the epoch
	// race. PatchFallbackRebuilds counts patch prepares where the cost
	// advisor predicted the flat splice would lose to a fresh build and
	// rebuilt instead (install.go).
	Installs              uint64 `json:"installs"`
	PipelinedInstalls     uint64 `json:"pipelinedInstalls"`
	PatchInstalls         uint64 `json:"patchInstalls"`
	RebuildInstalls       uint64 `json:"rebuildInstalls"`
	StaleInstalls         uint64 `json:"staleInstalls"`
	PatchFallbackRebuilds uint64 `json:"patch_fallback_rebuilds"`
}

// state is the RCU payload: the frozen model — exact tables, pod tables,
// or both under one epoch — plus the scenario planner built on it. All of
// it is read-only after construction.
type state struct {
	profile *core.Profile
	snap    *core.Snapshot    // nil in pod-only mode
	pods    *core.PodSnapshot // nil without pod tables
	planner *baseline.Planner
	epoch   uint64
}

// autoHier reports whether auto mode routes method #8 hierarchically.
func (st *state) autoHier() bool {
	return st.pods != nil && (st.snap == nil || st.profile.Size() >= HierThreshold)
}

// flight is one in-progress computation that concurrent identical
// requests wait on.
type flight struct {
	done chan struct{}
	resp *Response
	err  error
}

// cacheEntry is one LRU cache slot.
type cacheEntry struct {
	key  cacheKey
	resp *Response
}

// Engine serves plans off an atomically swappable snapshot.
type Engine struct {
	state atomic.Pointer[state]

	exactKeys   bool
	maxInFlight int                       // admission bound; ≤ 0 = unbounded
	computeHook func(ctx context.Context) // fault-injection / test hook

	installing atomic.Int32 // > 0 while a snapshot build/install runs

	// patchMu serializes InstallPatch callers among themselves: a patch
	// prepare costs milliseconds, so letting two re-profilers race the
	// epoch check would burn duplicate builds and can livelock the
	// bounded retry loop. Full Install/PrepareInstall callers do not
	// take it — their interference is what the retry loop is for.
	patchMu sync.Mutex

	mu       sync.Mutex
	cache    map[cacheKey]*list.Element
	lru      *list.List // front = most recently used
	inflight map[cacheKey]*flight

	hits, misses, evictions, shared uint64
	shedOverload                    uint64

	// Install accounting (see Stats); guarded by mu.
	installs              uint64
	pipelinedInstalls     uint64
	patchInstalls         uint64
	rebuildInstalls       uint64
	staleInstalls         uint64
	patchFallbackRebuilds uint64

	// Request-counted breaker (overload.go); guarded by mu.
	breakerState    int
	breakerFails    int
	breakerShedLeft int
	breakerProbing  bool
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithExactCacheKeys keys the plan cache by the load's exact bit pattern
// instead of the default 0.1 %-of-capacity buckets. Bit-exactness tests
// and workloads that must never serve a neighbouring load's plan use
// this.
func WithExactCacheKeys() Option {
	return func(e *Engine) { e.exactKeys = true }
}

// New builds an engine serving the given planner's snapshot.
func New(pl *baseline.Planner, opts ...Option) *Engine {
	e := newEngine(opts)
	snap := pl.Snapshot()
	e.state.Store(&state{
		profile: pl.Profile(), snap: snap, planner: pl, epoch: snap.Epoch(),
	})
	return e
}

func newEngine(opts []Option) *Engine {
	e := &Engine{
		cache:    make(map[cacheKey]*list.Element),
		lru:      list.New(),
		inflight: make(map[cacheKey]*flight),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// FromSnapshot builds an engine directly on a frozen snapshot,
// constructing the scenario planner over it.
func FromSnapshot(snap *core.Snapshot, opts ...Option) (*Engine, error) {
	return FromSnapshots(snap, nil, opts...)
}

// FromPodSnapshot builds a pod-only engine: every scenario planner path
// that needs whole-room tables serves through the hierarchical planner
// instead. This is the construction for rooms past the whole-room table
// cap.
func FromPodSnapshot(pods *core.PodSnapshot, opts ...Option) (*Engine, error) {
	return FromSnapshots(nil, pods, opts...)
}

// FromSnapshots builds an engine over an exact snapshot, pod tables, or
// both published as one epoch. At least one must be non-nil and their
// epochs must agree.
func FromSnapshots(snap *core.Snapshot, pods *core.PodSnapshot, opts ...Option) (*Engine, error) {
	st, err := newState(snap, pods)
	if err != nil {
		return nil, err
	}
	e := newEngine(opts)
	e.state.Store(st)
	return e, nil
}

func newState(snap *core.Snapshot, pods *core.PodSnapshot) (*state, error) {
	if snap == nil && pods == nil {
		return nil, errors.New("engine: need an exact snapshot, pod tables, or both")
	}
	if snap != nil && pods != nil && snap.Epoch() != pods.Epoch() {
		return nil, fmt.Errorf("engine: snapshot epoch %d and pod epoch %d must be installed as one generation",
			snap.Epoch(), pods.Epoch())
	}
	var (
		pl  *baseline.Planner
		err error
	)
	if snap != nil {
		pl, err = baseline.NewPlannerOn(snap)
	} else {
		pl, err = baseline.NewPlannerOnProfile(pods.Profile())
	}
	if err != nil {
		return nil, err
	}
	st := &state{snap: snap, pods: pods, planner: pl, profile: pl.Profile()}
	if snap != nil {
		st.epoch = snap.Epoch()
	} else {
		st.epoch = pods.Epoch()
	}
	return st, nil
}

// Install publishes a new exact snapshot (dropping any pod tables): the
// scenario planner is rebuilt on it, the state swaps in atomically, and
// the plan cache is dropped. Queries already running finish against the
// state they loaded; new queries see the new one.
func (e *Engine) Install(snap *core.Snapshot) error {
	return e.InstallHierarchical(snap, nil)
}

// InstallHierarchical publishes an exact snapshot and prebuilt pod tables
// (either may be nil, not both) as one atomic generation; the plan cache
// is dropped. While the install's own state build runs, cache misses are
// shed with ErrOverloaded; wrap a slow out-of-engine snapshot build in
// BeginInstall to extend that window over the expensive part.
func (e *Engine) InstallHierarchical(snap *core.Snapshot, pods *core.PodSnapshot) error {
	done := e.BeginInstall()
	defer done()
	st, err := newState(snap, pods)
	if err != nil {
		return err
	}
	e.publish(st)
	return nil
}

// publish swaps in a fully built state and drops the plan cache. All
// publications funnel through here (and publishIfEpoch) under e.mu, so
// concurrent installers serialize; readers stay lock-free on the atomic
// pointer. The swap is O(1) — the commit half of the install pipeline —
// so it deliberately does NOT take the BeginInstall gate: shedding exists
// to protect long in-line builds, and a prebuilt commit has no build
// window, which is what keeps readiness from flapping on patch-sized
// installs.
func (e *Engine) publish(st *state) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.publishLocked(st)
}

// publishLocked is publish with e.mu already held.
func (e *Engine) publishLocked(st *state) {
	e.state.Store(st)
	e.cache = make(map[cacheKey]*list.Element)
	e.lru.Init()
	e.installs++
}

// publishIfEpoch publishes st only if the live generation still equals
// base — the compare-and-swap the pipelined path (install.go) commits
// through, so a prepared install that lost an epoch race is refused
// instead of silently clobbering a newer generation.
func (e *Engine) publishIfEpoch(st *state, base uint64, patched bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.state.Load().epoch; cur != base {
		e.staleInstalls++
		return fmt.Errorf("%w: prepared against epoch %d but epoch %d is live", ErrStaleInstall, base, cur)
	}
	e.publishLocked(st)
	e.pipelinedInstalls++
	if patched {
		e.patchInstalls++
	} else {
		e.rebuildInstalls++
	}
	return nil
}

// Snapshot returns the currently installed exact snapshot, or nil for a
// pod-only engine.
func (e *Engine) Snapshot() *core.Snapshot { return e.state.Load().snap }

// Pods returns the currently installed pod tables, or nil.
func (e *Engine) Pods() *core.PodSnapshot { return e.state.Load().pods }

// Epoch returns the installed generation.
func (e *Engine) Epoch() uint64 { return e.state.Load().epoch }

// Planner returns the scenario planner over the installed state.
func (e *Engine) Planner() *baseline.Planner { return e.state.Load().planner }

// Stats returns a point-in-time view of the cache counters and the
// installed topology.
func (e *Engine) Stats() Stats {
	st := e.state.Load()
	s := Stats{
		CacheCapacity: cacheCap,
		QuantizedKeys: !e.exactKeys,
		Epoch:         st.epoch,
		Machines:      st.profile.Size(),
		Hierarchical:  st.autoHier(),
		MaxInFlight:   e.maxInFlight,
		Installing:    e.installing.Load() > 0,
	}
	if st.pods != nil {
		s.Pods = st.pods.Pods()
		s.PodDepth = st.pods.Depth()
	}
	e.mu.Lock()
	s.CacheHits, s.CacheMisses = e.hits, e.misses
	s.CacheEvictions, s.CacheShared = e.evictions, e.shared
	s.CacheEntries = len(e.cache)
	s.InFlight = len(e.inflight)
	s.ShedOverload = e.shedOverload
	s.Installs, s.PipelinedInstalls = e.installs, e.pipelinedInstalls
	s.PatchInstalls, s.RebuildInstalls = e.patchInstalls, e.rebuildInstalls
	s.StaleInstalls = e.staleInstalls
	s.PatchFallbackRebuilds = e.patchFallbackRebuilds
	s.Breaker = breakerName(e.breakerState)
	s.Ready = !s.Installing && e.breakerState == brClosed
	e.mu.Unlock()
	return s
}

// Plan answers one planning query. It is safe for any number of
// concurrent callers; identical queries are coalesced and answers are
// cached until the snapshot changes.
func (e *Engine) Plan(ctx context.Context, req Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if req.Load < 0 {
		return nil, fmt.Errorf("engine: negative load %v", req.Load)
	}
	st := e.state.Load()
	req = req.normalize()
	if len(req.Avoid) > 0 {
		n := st.profile.Size()
		if bad := req.Avoid[len(req.Avoid)-1]; bad >= n {
			return nil, fmt.Errorf("%w: machine %d outside [0, %d)", ErrBadAvoid, bad, n)
		}
		if bad := req.Avoid[0]; bad < 0 {
			return nil, fmt.Errorf("%w: machine %d outside [0, %d)", ErrBadAvoid, bad, n)
		}
	}
	if req.Mode == ModeHier && st.pods == nil {
		return nil, fmt.Errorf("%w: hierarchical mode requested but no pod tables installed", ErrNoPath)
	}
	if req.Mode == ModeExact && st.snap == nil {
		return nil, fmt.Errorf("%w: exact mode requested but the engine is pod-only", ErrNoPath)
	}
	key := req.key(st.epoch, st.profile.Size(), e.exactKeys)

	e.mu.Lock()
	if el, ok := e.cache[key]; ok {
		e.lru.MoveToFront(el)
		e.hits++
		e.mu.Unlock()
		r := *el.Value.(*cacheEntry).resp
		r.Cached = true
		return &r, nil
	}
	if f, ok := e.inflight[key]; ok {
		e.shared++
		e.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			r := *f.resp
			r.Shared = true
			return &r, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := e.admitLocked(); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	f := &flight{done: make(chan struct{})}
	e.inflight[key] = f
	e.misses++
	e.mu.Unlock()

	resp, err := e.compute(ctx, st, req)
	f.resp, f.err = resp, err
	close(f.done)

	e.mu.Lock()
	delete(e.inflight, key)
	e.noteComputeLocked(err)
	if err == nil {
		e.store(key, resp)
	}
	e.mu.Unlock()

	if err != nil {
		return nil, err
	}
	r := *resp
	return &r, nil
}

// store inserts into the bounded LRU cache; the caller holds e.mu.
func (e *Engine) store(key cacheKey, resp *Response) {
	if el, ok := e.cache[key]; ok {
		e.lru.MoveToFront(el)
		return
	}
	for len(e.cache) >= cacheCap {
		oldest := e.lru.Back()
		if oldest == nil {
			break
		}
		e.lru.Remove(oldest)
		delete(e.cache, oldest.Value.(*cacheEntry).key)
		e.evictions++
	}
	e.cache[key] = e.lru.PushFront(&cacheEntry{key: key, resp: resp})
}

// compute solves one normalized request against one state. The context
// carries the request deadline: the flat degraded sweep checks it
// between closed-form solves, and the fault-injection hook (if any) may
// block on it.
func (e *Engine) compute(ctx context.Context, st *state, req Request) (*Response, error) {
	if e.computeHook != nil {
		e.computeHook(ctx)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := &Response{Method: req.Method, Epoch: st.epoch, Memo: new(Memo)}
	switch {
	case req.Safe:
		if err := e.safePlan(st, req, resp); err != nil {
			return nil, err
		}
	case len(req.Avoid) > 0:
		if err := e.degradedPlan(ctx, st, req, resp); err != nil {
			return nil, err
		}
	case req.Method == baseline.OptimalACCons && req.Load > 0 && st.useHier(req.Mode):
		plan, err := st.pods.Plan(req.Load)
		if err != nil {
			return nil, err
		}
		resp.Plan = plan
		resp.Hierarchical = true
	default:
		plan, err := st.planner.Plan(req.Method, req.Load)
		if err != nil {
			return nil, err
		}
		resp.Plan = plan
	}
	return resp, nil
}

// useHier resolves the consolidation path for method #8 under this state.
func (st *state) useHier(mode PlanMode) bool {
	switch mode {
	case ModeHier:
		return true
	case ModeExact:
		return false
	default:
		return st.autoHier()
	}
}

// survivors returns 0..n−1 minus the (sorted) avoid list.
func survivors(n int, avoid []int) []int {
	pool := make([]int, 0, n)
	next := 0
	for i := 0; i < n; i++ {
		for next < len(avoid) && avoid[next] < i {
			next++
		}
		if next < len(avoid) && avoid[next] == i {
			continue
		}
		pool = append(pool, i)
	}
	return pool
}

// degradedPlan plans around the avoid set. With hierarchy active
// (pinned, auto above the threshold, or pod-only) the pod-local
// PlanAvoiding answers: untouched pods reuse their tables, affected pods
// re-solve survivor-restricted, and the flat O(n²) pool sweep never
// runs. Otherwise the paper's closed form re-runs over the survivors
// (context-cancellable). Either way, when even the full surviving set
// cannot carry the demand the excess is shed to the pool's Eq. 20
// capacity at the coldest supply (with the thermal cushion).
func (e *Engine) degradedPlan(ctx context.Context, st *state, req Request, resp *Response) error {
	resp.Degraded = true
	p := st.profile
	pool := survivors(p.Size(), req.Avoid)
	if len(pool) == 0 {
		return errors.New("engine: no surviving machines")
	}
	if st.useHier(req.Mode) {
		resp.Hierarchical = true
		plan, err := st.pods.PlanAvoiding(req.Load, req.Avoid)
		if err == nil {
			resp.Plan = plan
			return nil
		}
		if !errors.Is(err, core.ErrInfeasible) {
			return err
		}
		capacity := p.CapacityAt(pool, units.Celsius(p.TAcMinC+req.MarginC))
		if capacity <= 0 || capacity >= req.Load {
			return err // infeasibility was not demand-driven; shedding cannot help
		}
		plan, shedErr := st.pods.PlanAvoiding(capacity, req.Avoid)
		if shedErr != nil {
			return fmt.Errorf("engine: no feasible degraded plan even after shedding to %.2f units: %w", capacity, shedErr)
		}
		resp.Plan = plan
		resp.ShedLoad = req.Load - capacity
		resp.Capacity = capacity
		return nil
	}
	plan, err := p.PlanOverCtx(ctx, pool, req.Load)
	if err != nil {
		return err
	}
	if plan != nil {
		resp.Plan = plan
		return nil
	}
	capacity := p.CapacityAt(pool, units.Celsius(p.TAcMinC+req.MarginC))
	plan, err = p.PlanOverCtx(ctx, pool, capacity)
	if err != nil {
		return err
	}
	if plan == nil {
		return fmt.Errorf("engine: no feasible degraded plan even after shedding to %.2f units", capacity)
	}
	resp.Plan = plan
	resp.ShedLoad = req.Load - capacity
	resp.Capacity = capacity
	return nil
}

// safePlan plans for a CRAC that no longer answers commands: no
// consolidation (concentration is what needs cold air), loads sized to
// what the achieved supply temperature can carry. Unlike an even spread,
// the shed is slack-weighted: each machine gets load in proportion to its
// own Eq. 20 cap at the achieved supply, so thermally tight machines
// (high α_i/β_i, low K_i) are unloaded first and no machine is pushed
// past its cap.
func (e *Engine) safePlan(st *state, req Request, resp *Response) error {
	p := st.profile
	pool := survivors(p.Size(), req.Avoid)
	if len(pool) == 0 {
		return errors.New("engine: no surviving machines")
	}
	supply := units.Celsius(req.AchievedSupplyC + req.MarginC)
	caps := make([]float64, len(pool))
	var capacity float64
	for j, i := range pool {
		caps[j] = p.LoadCap(i, supply)
		capacity += caps[j]
	}
	carried := req.Load
	if carried > capacity {
		carried = capacity
		resp.ShedLoad = req.Load - capacity
		resp.Capacity = capacity
	}
	loads := make([]float64, p.Size())
	if capacity > 0 {
		scale := carried / capacity
		for j, i := range pool {
			loads[i] = caps[j] * scale
		}
	}
	resp.Plan = &core.Plan{On: pool, Loads: loads, TAcC: units.Celsius(p.TAcMinC)}
	return nil
}

// MaxLoad answers the paper's dual budget question maxL(A, P_b) off the
// installed state: the maximum serviceable load under a power budget and
// the machine set achieving it. Above the hierarchy threshold (or
// pod-only) the composed pod query answers with its bounded gap.
func (e *Engine) MaxLoad(budgetW float64) (core.MaxLoadResult, error) {
	st := e.state.Load()
	if st.autoHier() {
		return st.pods.MaxLoad(budgetW)
	}
	return st.snap.Tables().MaxLoad(budgetW)
}

// Consolidate answers the consolidation query directly: the best subset
// of at least minK machines for the given load (Eq. 23 scoring), served
// hierarchically above the threshold.
func (e *Engine) Consolidate(load float64, minK int) (core.Selection, error) {
	st := e.state.Load()
	if st.autoHier() {
		return st.pods.Consolidate(load, minK)
	}
	return st.snap.Tables().QueryExact(load, minK)
}
