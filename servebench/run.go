package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coolopt/internal/core"
	"coolopt/internal/engine"
	"coolopt/internal/units"
)

const (
	// driftPeriod is the drift re-profiler's open-loop batch schedule.
	driftPeriod = 250 * time.Millisecond
	// warmup is the untimed closed-loop phase before measuring: it fills
	// the plan cache on the hot mix and settles connections and the heap.
	warmup = time.Second
	// idleInstalls is the number of drift batches installed on the idle
	// server before the warm-up and again after the timed window, on the
	// workloads without a re-profiler, for install_p50_ms.
	idleInstalls = 40
)

// Config is one benchmark run.
type Config struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	N         int
	Clients   int
	SetupReps int
	SpanDir   string
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the run's verdict and metrics.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Report holds the human-readable lines printed before the JSON.
	Report []string `json:"-"`
}

func (r *Result) set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

func (r *Result) note(format string, args ...any) {
	r.Report = append(r.Report, fmt.Sprintf(format, args...))
}

// installRecord is one committed drift batch: InstallPatch ran from
// start to end.
type installRecord struct {
	batch      int
	start, end time.Time
}

// Installer is the in-process re-profiler: it installs seeded drift
// batches through Engine.InstallPatch and publishes each committed epoch
// for the clients' epoch check.
type Installer struct {
	eng       *engine.Engine
	src       *DriftSource
	profiles  *Profiles
	committed *atomic.Uint64
	live      *core.Profile

	next              int
	attempted, failed int
	latMs, lateMs     []float64
	records           []installRecord
}

// install submits the next batch, due at due.
func (in *Installer) install(due time.Time) {
	batch := in.src.Next()
	k := in.next
	in.next++
	in.attempted++
	// The only installer: the patch publishes the live epoch + 1. Record
	// that generation's profile before it can serve a plan.
	want := in.eng.Epoch() + 1
	prof := applyBatch(in.live, batch)
	in.profiles.Set(want, prof)
	start := time.Now()
	got, err := in.eng.InstallPatch(batch)
	end := time.Now()
	if err != nil || got != want {
		in.failed++
		return
	}
	in.live = prof
	in.committed.Store(got)
	in.latMs = append(in.latMs, ms(end.Sub(due)))
	in.lateMs = append(in.lateMs, ms(start.Sub(due)))
	in.records = append(in.records, installRecord{k, start, end})
}

// loop installs one batch per period on an open-loop schedule starting
// at start, until stop closes. A batch whose due time passed while the
// previous install ran is submitted at once; its lateness is recorded.
func (in *Installer) loop(start time.Time, stop <-chan struct{}) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * driftPeriod)
		t := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		in.install(due)
	}
}

// exRecord is one exchange as the traced run keeps it; traced marks the
// exchanges whose spans were recorded.
type exRecord struct {
	req    int
	sent   time.Time
	traced bool
}

// phase is a closed-loop load phase: each client sends the stream's next
// request as soon as its previous answer is decoded and checked.
type phase struct {
	clients   []*Client
	stream    *Stream
	profiles  *Profiles
	committed *atomic.Uint64
	tally     *Tally
	// keep, when set, receives every exchange, and rec, when set, the
	// client spans of every exchange (traced runs).
	keep [][]exRecord
	rec  *Recorder
}

// exchange sends one request and checks the answer.
func (ph *phase) exchange(cl *Client, req Request) Exchange {
	minEpoch := ph.committed.Load()
	ex := cl.Plan(req)
	verdict, loadErr := ex.Verdict, false
	if verdict == OK {
		verdict, loadErr = checkPlan(ph.profiles, req, &ex.Result, minEpoch)
	}
	ph.tally.Add(verdict, loadErr)
	return ex
}

// send sends a fixed request list, the clients taking turns in order.
func (ph *phase) send(reqs []Request) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range ph.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(reqs)); i = next.Add(1) - 1 {
				ph.exchange(cl, reqs[i])
			}
		}()
	}
	wg.Wait()
}

// run drives the phase for d and returns every exchange's latency (ms)
// and the phase's wall time.
func (ph *phase) run(d time.Duration) ([]float64, time.Duration) {
	start := time.Now()
	until := start.Add(d)
	lat := make([][]float64, len(ph.clients))
	var wg sync.WaitGroup
	for c, cl := range ph.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, 0, 1<<14)
			for time.Now().Before(until) {
				req := ph.stream.Next()
				ex := ph.exchange(cl, req)
				out = append(out, ms(ex.Decoded.Sub(ex.Sent)))
				if ph.keep != nil {
					ph.keep[c] = append(ph.keep[c], exRecord{req.ID, ex.Sent, ph.rec != nil})
				}
				if ph.rec != nil {
					ph.rec.Add("client.request", req.ID, ex.Sent, ex.Decoded)
					ph.rec.Add("client.roundtrip", req.ID, ex.Sent, ex.Received)
					ph.rec.Add("client.decode", req.ID, ex.Received, ex.Decoded)
				}
			}
			lat[c] = out
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return all, elapsed
}

// Run executes one benchmark run.
func Run(cfg Config) (*Result, error) {
	res := &Result{Metrics: make(map[string]Metric)}
	stream, err := NewStream(cfg.Workload, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Set-up, several times: the median is setup_s. The last stack serves.
	var (
		stack  *Stack
		setups []float64
		builds []float64
		ht     = &HandlerTrace{}
	)
	var wrap func(http.Handler) http.Handler
	if cfg.Trace {
		wrap = ht.Wrap
	}
	for r := 0; r < cfg.SetupReps; r++ {
		if stack != nil {
			if err := stack.Close(); err != nil {
				return nil, err
			}
			stack = nil
		}
		runtime.GC()
		st, err := StartStack(cfg.N, cfg.Seed, wrap)
		if err != nil {
			return nil, err
		}
		stack = st
		setups = append(setups, st.Setup.Seconds())
		builds = append(builds, st.Build.Seconds())
	}
	defer stack.Close()
	runtime.GC()
	var mstat runtime.MemStats
	runtime.ReadMemStats(&mstat)
	res.set("setup_s", median(setups), "s")
	res.set("setup_heap_mb", float64(mstat.HeapAlloc)/(1<<20), "MB")

	tally := &Tally{}
	profiles := NewProfiles(stack.Engine.Epoch(), stack.Profile)
	committed := &atomic.Uint64{}
	committed.Store(stack.Engine.Epoch())
	clients := make([]*Client, cfg.Clients)
	for i := range clients {
		clients[i] = NewClient(stack.Base)
		defer clients[i].Close()
	}

	// Audit: fixed requests on the fresh epoch, before anything else
	// touches the cache, so plan_w_per_unit is a pure function of the
	// seed and the code.
	wpu := audit(clients[0], stack, profiles, tally, cfg)
	res.set("plan_w_per_unit", wpu, "W/unit")

	ph := &phase{clients: clients, stream: stream, profiles: profiles, committed: committed, tally: tally}
	if cfg.Trace {
		ph.keep = make([][]exRecord, len(clients))
	}
	inst := &Installer{
		eng: stack.Engine, src: NewDriftSource(stack.Profile, cfg.Seed),
		profiles: profiles, committed: committed, live: stack.Profile,
	}
	idle := func() {
		for i := 0; i < idleInstalls; i++ {
			inst.install(time.Now())
		}
	}
	if cfg.Workload != "drift" {
		idle()
	}

	ph.send(stream.WarmSet())
	ph.run(warmup)
	stopInst := make(chan struct{})
	var instDone sync.WaitGroup
	measure := time.Duration(cfg.Seconds * float64(time.Second))
	var trace *traceRun
	if cfg.Trace {
		trace = &traceRun{cfg: cfg, stack: stack, ht: ht, ph: ph}
	}
	if cfg.Workload == "drift" {
		instDone.Add(1)
		go func() {
			defer instDone.Done()
			inst.loop(time.Now(), stopInst)
		}()
	}
	stats0 := stack.Engine.Stats()
	var lat []float64
	var elapsed time.Duration
	if cfg.Trace {
		lat, elapsed = trace.measure(measure)
	} else {
		lat, elapsed = ph.run(measure)
	}
	if cfg.Workload == "drift" {
		close(stopInst)
		instDone.Wait()
	} else {
		idle()
	}
	stats1 := stack.Engine.Stats()

	res.set("plan_rps", float64(len(lat))/elapsed.Seconds(), "1/s")
	res.set("plan_p50_ms", quantile(lat, 0.50), "ms")
	res.set("plan_p99_ms", quantile(lat, 0.99), "ms")
	res.set("install_p50_ms", median(inst.latMs), "ms")

	res.Attempted = tally.Attempted() + int64(inst.attempted)
	res.Failed = tally.Failed() + int64(inst.failed)
	res.Correct = res.Failed == 0 && !math.IsNaN(wpu) && len(lat) > 0 && len(inst.latMs) > 0

	okCount := tally.Count(OK)
	res.note("workload %s, seed %d, n=%d, %d closed-loop clients, %.0f s measured", cfg.Workload, cfg.Seed, cfg.N, cfg.Clients, cfg.Seconds)
	res.note("fail_ratio = %.6g (%d of %d requests failed: %s)", ratio(tally.Failed(), tally.Attempted()), tally.Failed(), tally.Attempted(), tally.breakdown())
	res.note("install fail_ratio = %.6g (%d of %d installs failed)", ratio(int64(inst.failed), int64(inst.attempted)), inst.failed, inst.attempted)
	res.note("load_error_ratio = %.6g (%d of %d 200 responses off the requested load by > 1e-6·n)", ratio(tally.LoadErrors(), okCount), tally.LoadErrors(), okCount)
	if cfg.Workload == "drift" {
		res.note("install_p50_ms under load over %d installs; generator lateness p50 %.3f ms, max %.3f ms", len(inst.latMs), quantile(inst.lateMs, 0.5), quantile(inst.lateMs, 1))
	} else {
		res.note("install_p50_ms on the idle server over %d installs, half before the warm-up and half after the timed window", len(inst.latMs))
	}
	res.note("engine cache over the timed window: %d hits, %d misses, %d shared, %d evictions",
		stats1.CacheHits-stats0.CacheHits, stats1.CacheMisses-stats0.CacheMisses,
		stats1.CacheShared-stats0.CacheShared, stats1.CacheEvictions-stats0.CacheEvictions)
	res.note("plan latency over %d samples", len(lat))
	res.note("setup_s over %d set-ups: %v", len(setups), setups)

	if cfg.Trace {
		if err := trace.finish(res, inst, stats0, stats1, builds, tally, okCount); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// audit sends the workload's audit set in order through one client and
// returns total planned power (Eq. 9 + Eq. 10, via Profile.PlanPower)
// over total requested load.
func audit(cl *Client, st *Stack, profiles *Profiles, tally *Tally, cfg Config) float64 {
	var watts, load float64
	for _, req := range AuditSet(cfg.Workload, cfg.N, cfg.Seed) {
		ex := cl.Plan(req)
		verdict, loadErr := ex.Verdict, false
		if verdict == OK {
			verdict, loadErr = checkPlan(profiles, req, &ex.Result, st.Engine.Epoch())
		}
		tally.Add(verdict, loadErr)
		if verdict != OK {
			return math.NaN()
		}
		p := profiles.Get(ex.Result.Epoch)
		plan := &core.Plan{On: ex.Result.On, Loads: ex.Result.Loads, TAcC: units.Celsius(ex.Result.TAcC)}
		watts += float64(p.PlanPower(plan))
		load += req.Load
	}
	return watts / load
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
