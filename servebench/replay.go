package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"coolopt/internal/core"
	"coolopt/internal/engine"
)

// coreReplayMax caps the engine misses whose core work is replayed per
// traced run, which bounds the replay's length on the miss-only failover
// stream.
const coreReplayMax = 1500

// traceRun is the traced run: the measured window is split into an
// untraced half (the reference rate, allocation and GC counts) and a
// traced half (client and handler spans); afterwards the whole request
// stream and every drift batch are replayed in-process, in the order
// they were served, against a fresh engine on the set-up tables, with
// spans around each call into the engine and core.
type traceRun struct {
	cfg   Config
	stack *Stack
	ht    *HandlerTrace
	ph    *phase
	rec   *Recorder

	rpsUntraced, rpsTraced float64
	allocKBPerReq          float64
	gcCount                float64
	unionSizes             []float64
}

// measure runs both halves and returns the traced half's latencies and
// wall time.
func (tr *traceRun) measure(d time.Duration) ([]float64, time.Duration) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lat, elapsed := tr.ph.run(d / 2)
	runtime.ReadMemStats(&m1)
	tr.rpsUntraced = float64(len(lat)) / elapsed.Seconds()
	tr.allocKBPerReq = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(lat))
	tr.gcCount = float64(m1.NumGC - m0.NumGC)

	tr.rec = NewRecorder()
	tr.ph.rec = tr.rec
	tr.ht.rec.Store(tr.rec)
	lat, elapsed = tr.ph.run(d / 2)
	tr.ht.rec.Store(nil)
	tr.ph.rec = nil
	tr.rpsTraced = float64(len(lat)) / elapsed.Seconds()
	return lat, elapsed
}

// replayEvent is one served request or committed drift batch, in the
// order the replay re-runs them.
type replayEvent struct {
	at     time.Time
	ex     *exRecord
	inst   *installRecord
	traced bool
}

// replay re-runs the served stream at the engine and core boundaries and
// records their spans. It returns, per traced request, whether the
// replayed engine answered from its cache.
func (tr *traceRun) replay(inst *Installer) (map[int]bool, error) {
	var events []replayEvent
	maxID := -1
	for _, recs := range tr.ph.keep {
		for i := range recs {
			ex := &recs[i]
			// The failover stream never repeats a key, so requests before
			// the traced half cannot change what the engine does in it.
			if !ex.traced && tr.cfg.Workload == "failover" {
				continue
			}
			events = append(events, replayEvent{at: ex.sent, ex: ex, traced: ex.traced})
			if ex.req > maxID {
				maxID = ex.req
			}
		}
	}
	for i := range inst.records {
		r := &inst.records[i]
		events = append(events, replayEvent{at: r.end, inst: r, traced: true})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at.Before(events[j].at) })

	stream, err := NewStream(tr.cfg.Workload, tr.cfg.N, tr.cfg.Seed)
	if err != nil {
		return nil, err
	}
	reqs := make([]Request, maxID+1)
	for i := range reqs {
		reqs[i] = stream.Next()
	}
	src := NewDriftSource(tr.stack.Profile, tr.cfg.Seed)
	var batches [][]core.MachineDelta
	for _, r := range inst.records {
		for len(batches) <= r.batch {
			batches = append(batches, src.Next())
		}
	}

	eng, err := engine.FromPodSnapshot(tr.stack.Pods)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	hits := make(map[int]bool)
	coreReplays := 0
	warm := stream.WarmSet()
	for _, ev := range events {
		// The warm set went out after any installs that precede the
		// stream and before its first request.
		if ev.ex != nil && warm != nil {
			for _, req := range warm {
				if _, err := eng.Plan(ctx, engine.Request{Load: req.Load}); err != nil {
					return nil, fmt.Errorf("replay warm-up: %w", err)
				}
			}
			warm = nil
		}
		if ev.inst != nil {
			k := ev.inst.batch
			t0 := time.Now()
			if _, err := eng.Pods().Patch(batches[k]); err != nil {
				return nil, fmt.Errorf("replay core patch: %w", err)
			}
			t1 := time.Now()
			prep, err := eng.PreparePatch(batches[k])
			if err != nil {
				return nil, fmt.Errorf("replay prepare: %w", err)
			}
			t2 := time.Now()
			if err := eng.CommitInstall(prep); err != nil {
				return nil, fmt.Errorf("replay commit: %w", err)
			}
			t3 := time.Now()
			tr.rec.Add("engine.install", k, ev.inst.start, ev.inst.end)
			tr.rec.Add("core.patch", k, t0, t1)
			tr.rec.Add("engine.prepare_patch", k, t1, t2)
			tr.rec.Add("engine.commit", k, t2, t3)
			continue
		}
		req := reqs[ev.ex.req]
		t0 := time.Now()
		resp, err := eng.Plan(ctx, engine.Request{Load: req.Load, Avoid: req.Avoid})
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", req.ID, err)
		}
		if !ev.traced {
			continue
		}
		tr.rec.Add("engine.plan", req.ID, t0, t1)
		hits[req.ID] = resp.Cached
		if resp.Cached || coreReplays >= coreReplayMax {
			continue
		}
		coreReplays++
		if err := tr.replayCore(eng, req); err != nil {
			return nil, err
		}
	}
	return hits, nil
}

// replayCore re-runs one engine miss at the core boundary against the
// tables the engine served it from: the whole plan, then its two halves
// (subset selection, and the exact closed form over the union) apart.
func (tr *traceRun) replayCore(eng *engine.Engine, req Request) error {
	pods := eng.Pods()
	if len(req.Avoid) > 0 {
		t0 := time.Now()
		if _, err := pods.PlanAvoiding(req.Load, req.Avoid); err != nil {
			return fmt.Errorf("replay PlanAvoiding %d: %w", req.ID, err)
		}
		tr.rec.Add("core.plan_avoiding", req.ID, t0, time.Now())
		return nil
	}
	t0 := time.Now()
	if _, err := pods.Plan(req.Load); err != nil {
		return fmt.Errorf("replay Plan %d: %w", req.ID, err)
	}
	t1 := time.Now()
	union, err := pods.Select(req.Load)
	if err != nil {
		return fmt.Errorf("replay Select %d: %w", req.ID, err)
	}
	t2 := time.Now()
	if _, err := pods.Profile().SolveBounded(union, req.Load); err != nil {
		return fmt.Errorf("replay SolveBounded %d: %w", req.ID, err)
	}
	t3 := time.Now()
	tr.rec.Add("core.plan", req.ID, t0, t1)
	tr.rec.Add("core.select", req.ID, t1, t2)
	tr.rec.Add("core.solve_bounded", req.ID, t2, t3)
	tr.unionSizes = append(tr.unionSizes, float64(len(union)))
	return nil
}

// finish replays, derives the per-layer metrics and writes the spans.
func (tr *traceRun) finish(res *Result, inst *Installer, s0, s1 engine.Stats, builds []float64, tally *Tally, okCount int64) error {
	hits, err := tr.replay(inst)
	if err != nil {
		return err
	}
	spans := tr.rec.Finish()
	durs := func(name string, unit time.Duration, keep func(Span) bool) []float64 {
		var out []float64
		for _, s := range spans[name] {
			if keep == nil || keep(s) {
				out = append(out, float64(s.Dur())/float64(unit))
			}
		}
		return out
	}
	// selfOf returns, per request with both, the parent's duration minus
	// its children's.
	selfOf := func(parent string, unit time.Duration, kids ...string) []float64 {
		sub := children(spans, kids...)
		var out []float64
		for _, s := range spans[parent] {
			if d, ok := sub[s.Req]; ok {
				out = append(out, float64(s.Dur()-d)/float64(unit))
			}
		}
		return out
	}
	isHit := func(s Span) bool { return hits[s.Req] }
	isMiss := func(s Span) bool { return !hits[s.Req] }
	us, msec := time.Microsecond, time.Millisecond

	m := make(map[string]Metric)
	set := func(name string, v float64, unit string) { m[name] = Metric{Value: v, Unit: unit} }
	set("client.roundtrip_us", median(durs("client.roundtrip", us, nil)), "us")
	set("client.decode_us", median(durs("client.decode", us, nil)), "us")
	set("client.transport_us", median(selfOf("client.roundtrip", us, "roomapi.handler")), "us")
	set("client.load_error_ratio", ratio(tally.LoadErrors(), okCount), "ratio")
	handler := durs("roomapi.handler", us, nil)
	set("roomapi.handler_us_p50", quantile(handler, 0.5), "us")
	set("roomapi.handler_us_p99", quantile(handler, 0.99), "us")
	set("roomapi.self_us", median(selfOf("roomapi.handler", us, "engine.plan")), "us")
	var kb []float64
	tr.ht.mu.Lock()
	for _, b := range tr.ht.bytes {
		kb = append(kb, float64(b)/1024)
	}
	tr.ht.mu.Unlock()
	set("roomapi.response_kb", mean(kb), "KB")

	set("engine.hit_us", median(durs("engine.plan", us, isHit)), "us")
	set("engine.miss_ms", median(durs("engine.plan", msec, isMiss)), "ms")
	set("engine.miss_self_us", median(selfOf("engine.plan", us, "core.plan", "core.plan_avoiding")), "us")
	served := float64((s1.CacheHits - s0.CacheHits) + (s1.CacheMisses - s0.CacheMisses) + (s1.CacheShared - s0.CacheShared))
	if served == 0 {
		served = 1
	}
	set("engine.hit_ratio", float64(s1.CacheHits-s0.CacheHits)/served, "ratio")
	set("engine.shared_ratio", float64(s1.CacheShared-s0.CacheShared)/served, "ratio")
	set("engine.evictions", float64(s1.CacheEvictions-s0.CacheEvictions), "count")
	set("engine.shed", float64(s1.ShedOverload-s0.ShedOverload), "count")

	set("core.plan_ms", median(durs("core.plan", msec, nil)), "ms")
	set("core.select_ms", median(durs("core.select", msec, nil)), "ms")
	set("core.solve_bounded_ms", median(durs("core.solve_bounded", msec, nil)), "ms")
	set("core.union_size", mean(tr.unionSizes), "count")
	avoiding := durs("core.plan_avoiding", msec, nil)
	set("core.plan_avoiding_ms_p50", quantile(avoiding, 0.5), "ms")
	set("core.plan_avoiding_ms_p99", quantile(avoiding, 0.99), "ms")

	set("core.patch_ms", median(durs("core.patch", msec, nil)), "ms")
	set("engine.prepare_patch_ms", median(durs("engine.prepare_patch", msec, nil)), "ms")
	set("engine.commit_us", median(durs("engine.commit", us, nil)), "us")
	set("engine.stale_installs", float64(s1.StaleInstalls-s0.StaleInstalls), "count")

	set("core.build_s", median(builds), "s")
	set("core.table_mb", float64(tr.stack.Pods.TableBytes())/(1<<20), "MB")
	set("core.events", float64(tr.stack.Pods.Events()), "count")

	set("go.alloc_kb_per_req", tr.allocKBPerReq, "KB")
	set("go.gc_count", tr.gcCount, "count")
	set("trace.overhead_pct", 100*(tr.rpsUntraced-tr.rpsTraced)/tr.rpsUntraced, "%")

	res.note("traced run: untraced half %.1f req/s, traced half %.1f req/s (overhead %.2f %%); %d core replays",
		tr.rpsUntraced, tr.rpsTraced, m["trace.overhead_pct"].Value, len(durs("core.plan", us, nil))+len(avoiding))
	for _, name := range sortedKeys(m) {
		res.note("per-layer %s = %.6g %s", name, m[name].Value, m[name].Unit)
	}
	res.Metrics = m

	path := filepath.Join(tr.cfg.SpanDir, "spans-"+tr.cfg.Workload+".jsonl")
	if err := tr.rec.WriteFile(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	res.note("spans written to %s", path)
	return nil
}

func sortedKeys(m map[string]Metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
