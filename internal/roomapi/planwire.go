package roomapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strconv"

	"coolopt/internal/engine"
)

// This file is the /v1/plan wire codec. The response is dominated by the
// dense per-machine loads vector, and encoding/json reflects over it
// element by element on both ends, so the server encodes PlanResult with
// an append encoder (memoizing the O(n) part per cached plan) and the
// decoder parses the server's layout into a fresh PlanResult without
// reflection. Neither changes the wire: the encoder writes exactly what
// json.NewEncoder(w).Encode(PlanResult{…}) writes, and the decoder yields
// exactly what json.Unmarshal does — any body it does not recognize, and
// any destination that already holds slices, is handled by encoding/json
// itself. The decoder's in-repo callers are the Go clients of /v1/plan:
// the servebench load generator and the internal/chaos harness.

// errUnsupportedFloat mirrors encoding/json's refusal to encode NaN and
// ±Inf.
var errUnsupportedFloat = errors.New("roomapi: unsupported float value (NaN or Inf) in plan")

// appendPlanResult appends r's JSON encoding, byte for byte what
// json.NewEncoder(w).Encode(r) writes, trailing newline included. Like
// encoding/json it fails only on a NaN or infinite float.
//
// memo, when non-nil, is the engine's memo slot for the plan r carries.
// The "on"/"loads" fragment — the O(n) part — is taken from it when an
// earlier answer already encoded it, so a cached plan is encoded once;
// only the scalars and flags, which differ per request, are encoded
// every time. The fragment is stored only by a cache hit or a coalesced
// answer (r.Cached or r.Shared): a plain miss encodes straight into b,
// so traffic whose keys never repeat never copies a fragment into a
// memo.
func appendPlanResult(b []byte, r *PlanResult, memo *engine.Memo) ([]byte, error) {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	b = append(b, `,"method":`...)
	b = strconv.AppendInt(b, int64(r.Method), 10)
	b = append(b, ',')
	if frag := memo.Load(); frag != nil {
		b = append(b, frag...)
	} else {
		start := len(b)
		var err error
		if b, err = appendPlanSlices(b, r.On, r.Loads); err != nil {
			return b, err
		}
		if r.Cached || r.Shared {
			memo.Store(append([]byte(nil), b[start:]...))
		}
	}
	b = append(b, `,"tAcC":`...)
	b, err := appendFloat(b, r.TAcC)
	if err != nil {
		return b, err
	}
	for _, f := range [...]struct {
		key string
		v   float64
	}{{`,"shedLoad":`, r.ShedLoad}, {`,"capacity":`, r.Capacity}} {
		if f.v != 0 { // omitempty: both zeros are empty
			b = append(b, f.key...)
			if b, err = appendFloat(b, f.v); err != nil {
				return b, err
			}
		}
	}
	for _, f := range [...]struct {
		key string
		v   bool
	}{{`,"degraded":true`, r.Degraded}, {`,"cached":true`, r.Cached},
		{`,"shared":true`, r.Shared}, {`,"hierarchical":true`, r.Hierarchical}} {
		if f.v {
			b = append(b, f.key...)
		}
	}
	return append(b, "}\n"...), nil
}

// appendPlanSlices appends `"on":[…],"loads":[…]`, with null for a nil
// slice as encoding/json writes it.
func appendPlanSlices(b []byte, on []int, loads []float64) ([]byte, error) {
	b = append(b, `"on":`...)
	if on == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for j, id := range on {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"loads":`...)
	if loads == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for j, l := range loads {
		if j > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(b, l); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendFloat appends f as encoding/json encodes a float64: the shortest
// round-tripping digits in 'f' format, or in 'e' format when
// |f| < 1e-6 or |f| ≥ 1e21, with a one-digit negative exponent written
// e-7 rather than e-07.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.Float64bits(f) == 0 {
		return append(b, '0'), nil // +0, the common unloaded machine
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, errUnsupportedFloat
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// planResultJSON is PlanResult without its methods, so the fallback
// decode through encoding/json does not recurse into UnmarshalJSON.
type planResultJSON PlanResult

// UnmarshalJSON decodes a PlanResult. The canonical layout the server
// writes — fields in declaration order, no whitespace, the zero-valued
// omitempty fields left out — is parsed without reflection when the
// destination's slices have no capacity, as in a fresh PlanResult. Every
// other input (whitespace, reordered, case-folded, unknown or duplicate
// keys, null, invalid JSON) and every destination whose slices hold
// capacity is decoded by encoding/json, so its merge semantics into an
// earlier answer hold by construction. On the fast path, fields absent
// from the body are left untouched, an empty array yields a non-nil
// empty slice and null a nil one, just as encoding/json decodes; the
// slices are allocated once at the decoded length, where encoding/json
// grows them, so only their capacity can differ. Nothing in r is written
// until the whole body has parsed, so a body the fast path turns down
// reaches encoding/json with r untouched.
func (r *PlanResult) UnmarshalJSON(data []byte) error {
	if cap(r.On) == 0 && cap(r.Loads) == 0 && (&planDecoder{data: data}).run(r) {
		return nil
	}
	return json.Unmarshal(data, (*planResultJSON)(r))
}

// planDecoder parses the canonical /v1/plan layout. Besides the layout
// and the JSON number grammar it refuses what encoding/json refuses for
// these fields: an integer outside its field's range and a float literal
// outside the float64 range.
type planDecoder struct {
	data []byte
	i    int
}

// run parses the whole body and, if it has the canonical layout, stores
// it in dst and reports true. On false dst is untouched.
func (d *planDecoder) run(dst *PlanResult) bool {
	if n := len(d.data); n > 0 && d.data[n-1] == '\n' {
		d.data = d.data[:n-1] // json.Encoder's terminator
	}
	var (
		epoch  uint64
		method int64
		tAcC   float64
		on     []int
		loads  []float64
		ok     bool
	)
	if !d.lit(`{"epoch":`) || !d.uintLit(&epoch) || !d.lit(`,"method":`) || !d.intLit(&method) || !d.lit(`,"on":`) {
		return false
	}
	if on, ok = d.ints(); !ok || !d.lit(`,"loads":`) {
		return false
	}
	if loads, ok = d.floats(); !ok || !d.lit(`,"tAcC":`) || !d.floatLit(&tAcC) {
		return false
	}
	// The omitempty fields, each optional, in declaration order.
	var (
		nums    [2]float64
		numSet  [2]bool
		flags   [4]bool
		flagSet [4]bool
	)
	for j, key := range [...]string{`,"shedLoad":`, `,"capacity":`} {
		if d.lit(key) {
			if !d.floatLit(&nums[j]) {
				return false
			}
			numSet[j] = true
		}
	}
	for j, key := range [...]string{`,"degraded":`, `,"cached":`, `,"shared":`, `,"hierarchical":`} {
		if d.lit(key) {
			switch {
			case d.lit("true"):
				flags[j] = true
			case d.lit("false"):
			default:
				return false
			}
			flagSet[j] = true
		}
	}
	if !d.next('}') || d.i != len(d.data) {
		return false
	}
	dst.Epoch, dst.Method, dst.On, dst.Loads, dst.TAcC = epoch, int(method), on, loads, tAcC
	for j, f := range [...]*float64{&dst.ShedLoad, &dst.Capacity} {
		if numSet[j] {
			*f = nums[j]
		}
	}
	for j, f := range [...]*bool{&dst.Degraded, &dst.Cached, &dst.Shared, &dst.Hierarchical} {
		if flagSet[j] {
			*f = flags[j]
		}
	}
	return true
}

// lit consumes s if the input continues with it.
func (d *planDecoder) lit(s string) bool {
	if len(d.data)-d.i < len(s) || string(d.data[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// next consumes c if it is the next byte.
func (d *planDecoder) next(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// digits consumes a JSON integer part — 0, or a nonzero digit followed
// by digits — and returns its value. It refuses an absent or
// leading-zero part and a value past math.MaxUint64.
func (d *planDecoder) digits() (v uint64, ok bool) {
	start := d.i
	for d.i < len(d.data) && d.data[d.i] >= '0' && d.data[d.i] <= '9' {
		digit := uint64(d.data[d.i] - '0')
		if v > (math.MaxUint64-digit)/10 {
			return 0, false
		}
		v = v*10 + digit
		d.i++
	}
	n := d.i - start
	return v, n == 1 || (n > 1 && d.data[start] != '0')
}

// uintLit consumes a non-negative integer literal that fits uint64.
func (d *planDecoder) uintLit(v *uint64) bool {
	u, ok := d.digits()
	*v = u
	return ok
}

// intLit consumes an integer literal that fits int.
func (d *planDecoder) intLit(v *int64) bool {
	neg := d.i < len(d.data) && d.data[d.i] == '-'
	if neg {
		d.i++
	}
	u, ok := d.digits()
	switch {
	case !ok || u > 1<<63 || (!neg && u == 1<<63):
		return false
	case neg:
		*v = -int64(u) // wraps 1<<63 to math.MinInt64, as intended
	default:
		*v = int64(u)
	}
	return int64(int(*v)) == *v
}

// floatLit consumes a JSON number and converts it with
// strconv.ParseFloat, as encoding/json does, refusing a literal outside
// the float64 range.
func (d *planDecoder) floatLit(v *float64) bool {
	start := d.i
	if d.i < len(d.data) && d.data[d.i] == '-' {
		d.i++
	}
	if !d.intPart() {
		return false
	}
	if d.i < len(d.data) && d.data[d.i] == '.' {
		d.i++
		if !d.someDigits() {
			return false
		}
	}
	if d.i < len(d.data) && (d.data[d.i] == 'e' || d.data[d.i] == 'E') {
		d.i++
		if d.i < len(d.data) && (d.data[d.i] == '+' || d.data[d.i] == '-') {
			d.i++
		}
		if !d.someDigits() {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(d.data[start:d.i]), 64)
	if err != nil {
		return false
	}
	*v = f
	return true
}

// intPart consumes a float's integer part: 0, or a nonzero digit
// followed by any number of digits.
func (d *planDecoder) intPart() bool {
	start := d.i
	if !d.someDigits() {
		return false
	}
	return d.i-start == 1 || d.data[start] != '0'
}

// someDigits consumes one or more digits.
func (d *planDecoder) someDigits() bool {
	start := d.i
	for d.i < len(d.data) && d.data[d.i] >= '0' && d.data[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// ints consumes null or an array of integers: nil for null, a non-nil
// empty slice for [], and otherwise a new slice of the elements,
// allocated once at the array's length.
func (d *planDecoder) ints() ([]int, bool) {
	if d.lit("null") {
		return nil, true
	}
	if !d.next('[') {
		return nil, false
	}
	if d.next(']') {
		return []int{}, true
	}
	s := make([]int, 0, d.arrayLen())
	for {
		var v int64
		if !d.intLit(&v) {
			return nil, false
		}
		s = append(s, int(v))
		if d.next(']') {
			return s, true
		}
		if !d.next(',') {
			return nil, false
		}
	}
}

// arrayLen counts the elements of the non-empty array starting at the
// cursor, assuming the canonical layout (no strings or nested arrays).
func (d *planDecoder) arrayLen() int {
	rest := d.data[d.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{','}) + 1
}

// floats is ints for an array of numbers. The two stay separate: one
// generic version taking an element callback decoded a 4096-load body
// about 20 % slower, the callback being an indirect call per element.
func (d *planDecoder) floats() ([]float64, bool) {
	if d.lit("null") {
		return nil, true
	}
	if !d.next('[') {
		return nil, false
	}
	if d.next(']') {
		return []float64{}, true
	}
	s := make([]float64, 0, d.arrayLen())
	for {
		var v float64
		if !d.floatLit(&v) {
			return nil, false
		}
		s = append(s, v)
		if d.next(']') {
			return s, true
		}
		if !d.next(',') {
			return nil, false
		}
	}
}
