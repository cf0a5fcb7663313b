package engine

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"coolopt/internal/baseline"
)

// TestCacheKeyIdentity checks the struct key separates every request
// field, merges equivalent requests, and encodes the avoid list only
// when there is one.
func TestCacheKeyIdentity(t *testing.T) {
	base := Request{Load: 5, AchievedSupplyC: 20, MarginC: 1}.normalize()
	k := base.key(3, 10, false)
	if k.avoid != "" {
		t.Fatalf("empty avoid list encoded as %q", k.avoid)
	}
	if got := (Request{Load: 5.001, AchievedSupplyC: 20, MarginC: 1}).normalize().key(3, 10, false); got != k {
		t.Fatal("loads in one bucket keyed apart")
	}
	if got := (Request{Load: 5.001, AchievedSupplyC: 20, MarginC: 1}).normalize().key(3, 10, true); got == base.key(3, 10, true) {
		t.Fatal("exact keys merged loads one bucket apart")
	}
	for name, r := range map[string]Request{
		"method": {Method: baseline.Method(1), Load: 5, AchievedSupplyC: 20, MarginC: 1},
		"mode":   {Mode: ModeHier, Load: 5, AchievedSupplyC: 20, MarginC: 1},
		"load":   {Load: 5.02, AchievedSupplyC: 20, MarginC: 1},
		"safe":   {Load: 5, Safe: true, AchievedSupplyC: 20, MarginC: 1},
		"supply": {Load: 5, AchievedSupplyC: 21, MarginC: 1},
		"margin": {Load: 5, AchievedSupplyC: 20, MarginC: 2},
		"avoid":  {Load: 5, AchievedSupplyC: 20, MarginC: 1, Avoid: []int{0}},
	} {
		if r.normalize().key(3, 10, false) == k {
			t.Errorf("%s not part of the key", name)
		}
	}
	if base.key(4, 10, false) == k {
		t.Error("epoch not part of the key")
	}
	a := Request{Load: 5, Avoid: []int{3, 1, 3}}.normalize().key(0, 10, false)
	if b := (Request{Load: 5, Avoid: []int{1, 3}}).normalize().key(0, 10, false); a != b || a.avoid != "1,3" {
		t.Fatalf("equivalent avoid lists keyed %q and %q", a.avoid, b.avoid)
	}
	if x, y := (Request{Avoid: []int{1, 23}}).key(0, 10, false), (Request{Avoid: []int{12, 3}}).key(0, 10, false); x == y {
		t.Fatal("avoid lists 1,23 and 12,3 share a key")
	}
}

// TestPlanHitAllocs pins a cache hit at one allocation: the Response
// copy handed to the caller.
func TestPlanHitAllocs(t *testing.T) {
	e := testEngine(t, 16)
	ctx := context.Background()
	req := Request{Load: 6}
	if _, err := e.Plan(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if resp, err := e.Plan(ctx, req); err != nil || !resp.Cached {
			t.Fatalf("hit: %v", err)
		}
	})
	if allocs > 1 {
		t.Fatalf("cache hit allocates %v times, want ≤ 1", allocs)
	}
}

// TestMemoSharedByCacheEntry checks every copy of one computed answer —
// the miss, coalesced waiters and later hits — carries the same memo,
// and that a new computation or a new generation gets a fresh one.
func TestMemoSharedByCacheEntry(t *testing.T) {
	var (
		mu      sync.Mutex
		holding = true
		entered = make(chan struct{})
		release = make(chan struct{})
	)
	e, err := FromSnapshots(testSnapshot(t, 16, 0), nil, WithComputeHook(func(context.Context) {
		mu.Lock()
		h := holding
		holding = false
		mu.Unlock()
		if h {
			close(entered)
			<-release
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Load: 6}
	answers := make([]*Response, 2)
	var wg sync.WaitGroup
	for i := range answers {
		if i == 1 {
			<-entered
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := e.Plan(ctx, req)
			if err != nil {
				t.Error(err)
				return
			}
			answers[i] = resp
		}(i)
	}
	for e.Stats().CacheShared == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	miss, shared := answers[0], answers[1]
	hit, err := e.Plan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Memo == nil || !shared.Shared || !hit.Cached {
		t.Fatalf("miss memo %p, shared %t, cached %t", miss.Memo, shared.Shared, hit.Cached)
	}
	if shared.Memo != miss.Memo || hit.Memo != miss.Memo {
		t.Fatal("copies of one answer carry different memos")
	}
	miss.Memo.Store([]byte("a"))
	hit.Memo.Store([]byte("b"))
	if got := string(shared.Memo.Load()); got != "a" {
		t.Fatalf("memo holds %q, want the first store", got)
	}
	other, err := e.Plan(ctx, Request{Load: 9})
	if err != nil {
		t.Fatal(err)
	}
	if other.Memo == miss.Memo || other.Memo.Load() != nil {
		t.Fatal("a different plan shares the memo")
	}
	if err := e.Install(testSnapshot(t, 16, 1)); err != nil {
		t.Fatal(err)
	}
	again, err := e.Plan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached || again.Memo == miss.Memo || again.Memo.Load() != nil {
		t.Fatal("memo survived the install that dropped its cache entry")
	}
	var none *Memo
	none.Store([]byte("x"))
	if none.Load() != nil {
		t.Fatal("nil memo returned bytes")
	}
}

// BenchmarkEngineHit is one warm cache hit: normalize, the struct key,
// the LRU touch and the Response copy.
func BenchmarkEngineHit(b *testing.B) {
	e := testEngine(b, 64)
	ctx := context.Background()
	req := Request{Load: 20}
	if _, err := e.Plan(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Plan(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
