package roomapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"coolopt/internal/core"
	"coolopt/internal/engine"
	"coolopt/internal/sim"
)

// podEngine builds a pod-only engine over a synthetic n-machine room in
// the paper's parameter regime.
func podEngine(tb testing.TB, n int, opts ...engine.Option) *engine.Engine {
	tb.Helper()
	machines := make([]core.MachineProfile, n)
	for i := range machines {
		h := float64(i) / float64(n)
		machines[i] = core.MachineProfile{Alpha: 1, Beta: 0.46 * (1 + 0.1*h), Gamma: 0.5 + 2.2*h}
	}
	pods, err := core.NewPodSnapshot(&core.Profile{
		W1: 52, W2: 34, CoolFactor: 150, SetPointC: 31,
		TMaxC: 65, TAcMinC: 10, TAcMaxC: 25,
		Machines: machines,
	}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := engine.FromPodSnapshot(pods, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// planServer serves eng's planning endpoints in-process.
func planServer(tb testing.TB, eng *engine.Engine) *Server {
	tb.Helper()
	room, err := sim.NewDefault(1)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(room, WithEngine(eng))
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// fetchPlan GETs a /v1/plan query and returns the 200 body.
func fetchPlan(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: status %d, %v", url, resp.StatusCode, err)
		return nil
	}
	return body
}

// checkReflectionBody asserts a served body is exactly the reflection
// encoding of the PlanResult it carries, and returns that value.
func checkReflectionBody(t *testing.T, body []byte) PlanResult {
	t.Helper()
	var r PlanResult
	if err := json.Unmarshal(body, (*planResultJSON)(&r)); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	want, err := reflectEncode(&r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served body differs from the reflection encoding:\n got %s\nwant %s", body, want)
	}
	return r
}

// TestServedPlanBodyMatchesReflection serves one plan as a miss, a
// coalesced answer and a (memoized) cache hit, plus a shed degraded
// plan, and checks every body byte for byte against what encoding/json
// writes for the same PlanResult.
func TestServedPlanBodyMatchesReflection(t *testing.T) {
	var (
		hold    sync.Mutex
		holding bool
		entered = make(chan struct{}, 1)
		release = make(chan struct{})
	)
	eng := podEngine(t, 64, engine.WithComputeHook(func(context.Context) {
		hold.Lock()
		h := holding
		holding = false
		hold.Unlock()
		if h {
			entered <- struct{}{}
			<-release
		}
	}))
	ts := httptest.NewServer(planServer(t, eng))
	defer ts.Close()

	hold.Lock()
	holding = true
	hold.Unlock()
	url := ts.URL + "/v1/plan?load=20.5"
	bodies := make([][]byte, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); bodies[0] = fetchPlan(t, url) }()
	<-entered // the miss is computing; a second request must coalesce
	wg.Add(1)
	go func() { defer wg.Done(); bodies[1] = fetchPlan(t, url) }()
	for eng.Stats().CacheShared == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	hit := fetchPlan(t, url)
	shed := fetchPlan(t, ts.URL+"/v1/plan?load=1000&avoid=0,1,2")

	miss, shared := checkReflectionBody(t, bodies[0]), checkReflectionBody(t, bodies[1])
	if miss.Cached || miss.Shared || !shared.Shared || shared.Cached {
		t.Fatalf("miss/coalesced flags wrong: %+v / %+v", miss, shared)
	}
	if r := checkReflectionBody(t, hit); !r.Cached || len(r.Loads) != 64 {
		t.Fatalf("hit: %+v", r)
	}
	if r := checkReflectionBody(t, shed); !r.Degraded || r.ShedLoad <= 0 || r.Capacity <= 0 {
		t.Fatalf("shed plan: %+v", r)
	}
	// The hit is the miss plus its flag, byte for byte.
	if !bytes.Equal(bytes.Replace(hit, []byte(`,"cached":true`), nil, 1), bodies[0]) {
		t.Fatalf("hit and miss disagree on the plan:\n%s\n%s", hit, bodies[0])
	}
}

// TestPlanMemoFilledOnce checks a plain miss leaves the plan's memo
// empty, the first cache hit stores the encoded fragment there, and
// later hits are served from it.
func TestPlanMemoFilledOnce(t *testing.T) {
	eng := podEngine(t, 64)
	srv := planServer(t, eng)
	get := func() []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/plan?load=7", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	get()
	resp, err := eng.Plan(context.Background(), engine.Request{Load: 7})
	if err != nil {
		t.Fatal(err)
	}
	if frag := resp.Memo.Load(); frag != nil {
		t.Fatalf("a plain miss stored %q in the memo", frag)
	}
	first := get()
	frag := resp.Memo.Load()
	if frag == nil {
		t.Fatal("the first hit left the memo empty")
	}
	if !bytes.Contains(first, frag) {
		t.Fatalf("memo %s is not the served fragment of %s", frag, first)
	}
	second := get()
	if got := resp.Memo.Load(); &got[0] != &frag[0] {
		t.Fatal("a hit re-encoded and replaced the memo")
	}
	checkReflectionBody(t, second)
}

// BenchmarkPlanHandlerHit is /v1/plan through the handler on a warm
// cache entry of an n=4096 pod-only engine: query parsing, the engine
// hit and the memoized encode.
func BenchmarkPlanHandlerHit(b *testing.B) {
	srv := planServer(b, podEngine(b, 4096))
	req := httptest.NewRequest(http.MethodGet, "/v1/plan?load=1500", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d", rec.Code)
	}
	b.SetBytes(int64(rec.Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
	}
}

// BenchmarkPlanResultDecode decodes an n=4096 /v1/plan body into a fresh
// PlanResult, as a client does per answer: "fast" through
// UnmarshalJSON, "reflect" through encoding/json alone.
func BenchmarkPlanResultDecode(b *testing.B) {
	rec := httptest.NewRecorder()
	planServer(b, podEngine(b, 4096)).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/plan?load=1500", nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.Bytes()
	for _, c := range []struct {
		name string
		dst  func(*PlanResult) any
	}{
		{"fast", func(r *PlanResult) any { return r }},
		{"reflect", func(r *PlanResult) any { return (*planResultJSON)(r) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var r PlanResult
				if err := json.Unmarshal(body, c.dst(&r)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
