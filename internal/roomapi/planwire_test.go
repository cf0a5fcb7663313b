package roomapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"coolopt/internal/engine"
)

// reflectEncode is the reference encoding: what writeJSON wrote for a
// PlanResult before the append encoder existed.
func reflectEncode(r *PlanResult) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

// wireFloat draws from the float classes the encoder must get right:
// both zeros, one, subnormals, the 'e'-format boundaries either side of
// 1e-6 and 1e21, arbitrary bit patterns, and ordinary plan values.
func wireFloat(rng *rand.Rand) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(14) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return sign
	case 3:
		return sign * math.Float64frombits(1+rng.Uint64()%(1<<52-1)) // subnormal
	case 4:
		return sign * 1e-7
	case 5:
		return sign * 1e21
	case 6:
		return sign * math.Nextafter(1e-6, 0)
	case 7:
		return sign * 1e-6
	case 8:
		return sign * math.Nextafter(1e21, 0)
	case 9:
		return sign * math.MaxFloat64
	case 10:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 11:
		return sign * float64(rng.Intn(1000))
	default:
		return rng.Float64() * 100
	}
}

// randomPlanResult builds a wire value with every field class varied:
// nil, empty and populated slices, zero and nonzero omitempty floats,
// and the flag combination given by flags' low four bits.
func randomPlanResult(rng *rand.Rand, flags int) *PlanResult {
	r := &PlanResult{
		Epoch:        rng.Uint64() >> uint(rng.Intn(64)),
		Method:       rng.Intn(17) - 8,
		TAcC:         wireFloat(rng),
		Degraded:     flags&1 != 0,
		Cached:       flags&2 != 0,
		Shared:       flags&4 != 0,
		Hierarchical: flags&8 != 0,
	}
	if rng.Intn(3) > 0 {
		r.ShedLoad = wireFloat(rng)
	}
	if rng.Intn(3) > 0 {
		r.Capacity = wireFloat(rng)
	}
	switch rng.Intn(4) {
	case 0: // nil
	case 1:
		r.On = []int{}
	default:
		r.On = make([]int, rng.Intn(20))
		for i := range r.On {
			r.On[i] = rng.Intn(1<<20) - 10
		}
	}
	switch rng.Intn(4) {
	case 0:
	case 1:
		r.Loads = []float64{}
	default:
		r.Loads = make([]float64, rng.Intn(20))
		for i := range r.Loads {
			r.Loads[i] = wireFloat(rng)
		}
	}
	return r
}

func TestAppendPlanResultMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		r := randomPlanResult(rng, i)
		want, err := reflectEncode(r)
		if err != nil {
			t.Fatalf("reference encode of %+v: %v", r, err)
		}
		got, err := appendPlanResult(nil, r, nil)
		if err != nil {
			t.Fatalf("append encode of %+v: %v", r, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding of %+v:\n got %s\nwant %s", r, got, want)
		}
		// Through a memo: a plain miss leaves it empty, a hit or a
		// coalesced answer fills it, and a later answer with other
		// flags reuses the fragment.
		memo := new(engine.Memo)
		if got, err := appendPlanResult(nil, r, memo); err != nil || !bytes.Equal(got, want) ||
			(memo.Load() != nil) != (r.Cached || r.Shared) {
			t.Fatalf("encode of %+v through a memo: %s (%v), memo %q", r, got, err, memo.Load())
		}
		hit := *r
		hit.Cached = true
		wantHit, _ := reflectEncode(&hit)
		if got, err := appendPlanResult(nil, &hit, memo); err != nil || !bytes.Equal(got, wantHit) || memo.Load() == nil {
			t.Fatalf("memo-filling encode of %+v: %s (%v)", hit, got, err)
		}
		again := *r
		again.Cached, again.Shared = false, !r.Shared
		wantAgain, _ := reflectEncode(&again)
		got, err = appendPlanResult(nil, &again, memo)
		if err != nil || !bytes.Equal(got, wantAgain) {
			t.Fatalf("memoized encode of %+v:\n got %s\nwant %s", again, got, wantAgain)
		}
		// The server's own bodies must take the fast decode path.
		if !(&planDecoder{data: got}).run(&PlanResult{}) {
			t.Fatalf("canonical body refused by the fast path: %s", got)
		}
	}
}

func TestAppendPlanResultRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []*PlanResult{
			{TAcC: bad}, {ShedLoad: bad}, {Capacity: bad}, {Loads: []float64{1, bad}},
		} {
			if _, err := reflectEncode(r); err == nil {
				t.Fatalf("reference encoder accepted %v", bad)
			}
			if _, err := appendPlanResult(nil, r, nil); err == nil {
				t.Fatalf("append encoder accepted %+v", r)
			}
		}
	}
}

// prefilled returns a destination already holding a previous answer:
// every scalar set, slices of the given lengths and capacities filled
// with sentinels through their full capacity.
func prefilled(onLen, onCap, loadsLen, loadsCap int) *PlanResult {
	r := &PlanResult{
		Epoch: 99, Method: 3, TAcC: -7.25, ShedLoad: 1.5, Capacity: 2.5,
		Degraded: true, Cached: true, Shared: true, Hierarchical: true,
	}
	if onCap >= 0 {
		r.On = make([]int, onCap)
		for i := range r.On {
			r.On[i] = -1000 - i
		}
		r.On = r.On[:onLen]
	}
	if loadsCap >= 0 {
		r.Loads = make([]float64, loadsCap)
		for i := range r.Loads {
			r.Loads[i] = -0.5 - float64(i)
		}
		r.Loads = r.Loads[:loadsLen]
	}
	return r
}

// clonePlanResult deep-copies r including the slices' spare capacity.
func clonePlanResult(r *PlanResult) *PlanResult {
	c := *r
	if r.On != nil {
		c.On = append(make([]int, 0, cap(r.On)), r.On[:cap(r.On)]...)[:len(r.On)]
	}
	if r.Loads != nil {
		c.Loads = append(make([]float64, 0, cap(r.Loads)), r.Loads[:cap(r.Loads)]...)[:len(r.Loads)]
	}
	return &c
}

// diffPlanResult compares two decode results to the float bit,
// including slice nil-ness and whether each result still aliases its
// caller's original array. The two callers' original backing arrays are
// compared in full, spare capacity included, whatever the aliasing.
func diffPlanResult(got, want, gotOrig, wantOrig *PlanResult) string {
	if got.Epoch != want.Epoch || got.Method != want.Method ||
		got.Degraded != want.Degraded || got.Cached != want.Cached ||
		got.Shared != want.Shared || got.Hierarchical != want.Hierarchical {
		return fmt.Sprintf("scalars: got %+v want %+v", *got, *want)
	}
	for _, f := range [][2]float64{{got.TAcC, want.TAcC}, {got.ShedLoad, want.ShedLoad}, {got.Capacity, want.Capacity}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return fmt.Sprintf("float scalars: got %+v want %+v", *got, *want)
		}
	}
	if d := diffSlice("on", got.On, want.On, gotOrig.On, wantOrig.On, func(v int) uint64 { return uint64(v) }); d != "" {
		return d
	}
	return diffSlice("loads", got.Loads, want.Loads, gotOrig.Loads, wantOrig.Loads, math.Float64bits)
}

// diffSlice is diffPlanResult for one slice field, comparing elements
// by their bits.
func diffSlice[T any](name string, got, want, gotOrig, wantOrig []T, bits func(T) uint64) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("%s header: got len %d nil %t, want len %d nil %t",
			name, len(got), got == nil, len(want), want == nil)
	}
	if sameArray(got, gotOrig) != sameArray(want, wantOrig) {
		return name + ": aliasing of the caller's array differs"
	}
	for i := range got {
		if bits(got[i]) != bits(want[i]) {
			return fmt.Sprintf("%s differs at %d: got %v want %v", name, i, got[i], want[i])
		}
	}
	g, w := gotOrig[:cap(gotOrig)], wantOrig[:cap(wantOrig)]
	for i := range g {
		if bits(g[i]) != bits(w[i]) {
			return fmt.Sprintf("%s: the caller's original array differs at %d: got %v want %v", name, i, g[i], w[i])
		}
	}
	return ""
}

// sameArray reports whether a and b share a non-empty backing array.
func sameArray[T any](a, b []T) bool {
	return cap(a) > 0 && cap(b) > 0 && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// checkDecodeAgrees decodes data through UnmarshalJSON and through
// encoding/json on the method-free alias, each into its own copy of dst,
// and fails on any difference in the error or the resulting state. It
// reports whether the decode succeeded.
func checkDecodeAgrees(t *testing.T, data []byte, dst *PlanResult) bool {
	t.Helper()
	got, want := clonePlanResult(dst), clonePlanResult(dst)
	gotOrig, wantOrig := *got, *want
	gotErr := got.UnmarshalJSON(data)
	wantErr := json.Unmarshal(data, (*planResultJSON)(want))
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("decode of %q: error %v, encoding/json %v", data, gotErr, wantErr)
	}
	if d := diffPlanResult(got, want, &gotOrig, &wantOrig); d != "" {
		t.Fatalf("decode of %q into %+v: %s", data, *dst, d)
	}
	// The same through json.Unmarshal, which validates the whole input
	// and then hands UnmarshalJSON the object.
	got, want = clonePlanResult(dst), clonePlanResult(dst)
	gotOrig, wantOrig = *got, *want
	gotErr = json.Unmarshal(data, got)
	wantErr = json.Unmarshal(data, (*planResultJSON)(want))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("json.Unmarshal of %q: error %v, alias %v", data, gotErr, wantErr)
	}
	if d := diffPlanResult(got, want, &gotOrig, &wantOrig); d != "" {
		t.Fatalf("json.Unmarshal of %q into %+v: %s", data, *dst, d)
	}
	return wantErr == nil
}

// decodeDestinations is a zeroed destination plus previous answers
// whose slices are shorter, longer, or without room for the new ones.
func decodeDestinations() []*PlanResult {
	return []*PlanResult{
		{},
		prefilled(0, 0, 0, 0),
		prefilled(2, 3, 2, 3),
		prefilled(5, 64, 40, 64),
		prefilled(1, 1, 1, 1),
		prefilled(3, 8, -1, -1),
	}
}

// nonCanonical rewrites a canonical body into forms the fast path must
// hand to encoding/json, plus a few it must accept.
func nonCanonical(body []byte) [][]byte {
	s := strings.TrimSuffix(string(body), "\n")
	var indented bytes.Buffer
	_ = json.Indent(&indented, []byte(s), "", "  ")
	var fields map[string]json.RawMessage
	_ = json.Unmarshal([]byte(s), &fields)
	reordered, _ := json.Marshal(fields) // sorted keys
	out := [][]byte{
		[]byte(s),
		indented.Bytes(),
		reordered,
		[]byte(" " + s),
		[]byte(s + " "),
		[]byte(strings.Replace(s, `"epoch"`, `"EPOCH"`, 1)),
		[]byte(strings.Replace(s, `"loads"`, `"Loads"`, 1)),
		[]byte(`{"extra":[1,{"a":null}],` + s[1:]),
		[]byte(s[:len(s)-1] + `,"epoch":7}`),
		[]byte(s[:len(s)-1] + `,"tAcC":null}`),
		[]byte(s[:len(s)-1] + `,"cached":false,"shared":false}`),
		[]byte(s[:len(s)-1] + `,"shedLoad":1e400}`),
		[]byte(s + "x"),
		[]byte(s[:len(s)/2]),
		[]byte(strings.Replace(s, `"on":[`, `"on":[1.5,`, 1)),
		[]byte(strings.Replace(s, `"on":[`, `"on":[1e2,`, 1)),
		[]byte(strings.Replace(s, `"on":[`, `"on":[99999999999999999999,`, 1)),
		[]byte(strings.Replace(s, `"loads":[`, `"loads":[1e400,`, 1)),
		[]byte(strings.Replace(s, `"loads":[`, `"loads":[-0,1E+2,0.5e-3,`, 1)),
		[]byte(strings.Replace(s, `"loads":[`, `"loads":[01,`, 1)),
		[]byte(strings.Replace(s, `"loads":[`, `"loads":["1",`, 1)),
		[]byte(strings.Replace(s, `"epoch":`, `"epoch":-`, 1)),
		[]byte(strings.Replace(s, `"method":`, `"method":1.0e0,"x":`, 1)),
		[]byte(`null`),
		[]byte(`{}`),
		[]byte(`[]`),
		[]byte(`{"epoch":1,"method":8,"on":null,"loads":null,"tAcC":0}`),
		[]byte(`{"epoch":1,"method":8,"on":[],"loads":[],"tAcC":0}`),
	}
	return out
}

func TestUnmarshalJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 120; i++ {
		body, err := appendPlanResult(nil, randomPlanResult(rng, i), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, data := range append(nonCanonical(body), body) {
			for _, dst := range decodeDestinations() {
				checkDecodeAgrees(t, data, dst)
			}
		}
	}
}

// TestUnmarshalJSONRoundTrip decodes the encoder's output and encodes
// the result again. The encoder is injective on finite floats (shortest
// round-trip digits, -0 written as -0), so equal bytes mean the decode
// restored every encoded field to the bit.
func TestUnmarshalJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		body, err := appendPlanResult(nil, randomPlanResult(rng, i), nil)
		if err != nil {
			t.Fatal(err)
		}
		var back PlanResult
		if err := json.Unmarshal(body, &back); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		again, err := appendPlanResult(nil, &back, nil)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("re-encode of decoded %s: %s (%v)", body, again, err)
		}
	}
}

// FuzzPlanResultWire holds both codecs to encoding/json on arbitrary
// bodies: the decode of any input matches encoding/json's decode of the
// alias type into zeroed and previously filled destinations, and any
// value encoding/json can decode re-encodes to the reflection encoder's
// bytes and decodes back through the fast path unchanged.
func FuzzPlanResultWire(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 16; i++ {
		body, err := appendPlanResult(nil, randomPlanResult(rng, i), nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded bool
		for _, dst := range decodeDestinations() {
			decoded = checkDecodeAgrees(t, data, dst)
		}
		if !decoded {
			return
		}
		var r PlanResult
		if err := json.Unmarshal(data, (*planResultJSON)(&r)); err != nil {
			t.Fatalf("decoded into a filled destination but not a zeroed one: %v", err)
		}
		want, wantErr := reflectEncode(&r)
		got, gotErr := appendPlanResult(nil, &r, nil)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("encode of %+v: error %v, encoding/json %v", r, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode of %+v:\n got %s\nwant %s", r, got, want)
		}
		if !(&planDecoder{data: got}).run(&PlanResult{}) {
			t.Fatalf("canonical body refused by the fast path: %s", got)
		}
		for _, dst := range decodeDestinations() {
			checkDecodeAgrees(t, got, dst)
		}
	})
}

// TestUnmarshalJSONIntegerEdges pins the integer range checks at the
// int64 and uint64 boundaries, where the fast path must hand overflow to
// encoding/json.
func TestUnmarshalJSONIntegerEdges(t *testing.T) {
	for _, lit := range []struct{ epoch, method string }{
		{"0", "-0"},
		{"18446744073709551615", "9223372036854775807"},
		{"18446744073709551616", "1"},
		{"1", "-9223372036854775808"},
		{"1", "9223372036854775808"},
		{"1", "-9223372036854775809"},
		{"99999999999999999999", "8"},
	} {
		data := []byte(`{"epoch":` + lit.epoch + `,"method":` + lit.method + `,"on":[` + lit.method + `],"loads":[],"tAcC":1}`)
		for _, dst := range decodeDestinations() {
			checkDecodeAgrees(t, data, dst)
		}
	}
}
