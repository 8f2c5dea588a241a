package service

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strconv"
)

// The NDJSON reply lines are built by appending, not by json.Encoder: a
// cached reply is mostly result bytes that are already JSON, and the encoder
// would re-validate and re-compact every one of them on every hit. The
// appenders write exactly what json.NewEncoder(w).Encode writes for the same
// value — field order, omitempty, the encoder's float format, HTML escaping
// and the trailing newline — under one precondition: a non-empty Result is
// already in encoder form (compact, HTML-escaped). json.Marshal output is;
// resultCache.loadDisk normalizes what it reads back from disk to it.

// appendPointLine appends p as one NDJSON line.
func appendPointLine(dst []byte, p *PointResponse) []byte {
	dst = append(dst, `{"type":`...)
	dst = appendJSONString(dst, p.Type)
	dst = append(dst, `,"index":`...)
	dst = strconv.AppendInt(dst, int64(p.Index), 10)
	dst = append(dst, `,"load":`...)
	dst = appendJSONFloat(dst, p.Load)
	dst = append(dst, `,"key":`...)
	dst = appendJSONString(dst, p.Key)
	dst = append(dst, `,"source":`...)
	dst = appendJSONString(dst, p.Source)
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, p.ElapsedUS, 10)
	if len(p.Result) > 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, p.Result...)
	}
	if p.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, p.Error)
	}
	return append(dst, "}\n"...)
}

// appendSummaryLine appends s as the closing NDJSON line.
func appendSummaryLine(dst []byte, s *SummaryResponse) []byte {
	dst = append(dst, `{"type":`...)
	dst = appendJSONString(dst, s.Type)
	dst = append(dst, `,"points":`...)
	dst = strconv.AppendInt(dst, int64(s.Points), 10)
	dst = append(dst, `,"cache_hits":`...)
	dst = strconv.AppendInt(dst, int64(s.CacheHits), 10)
	dst = append(dst, `,"computed":`...)
	dst = strconv.AppendInt(dst, int64(s.Computed), 10)
	dst = append(dst, `,"coalesced":`...)
	dst = strconv.AppendInt(dst, int64(s.Coalesced), 10)
	dst = append(dst, `,"errors":`...)
	dst = strconv.AppendInt(dst, int64(s.Errors), 10)
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, s.ElapsedUS, 10)
	dst = append(dst, `,"engine":`...)
	dst = appendJSONString(dst, s.Engine)
	return append(dst, "}\n"...)
}

// appendJSONString appends s as a JSON string. The strings of a reply (type,
// hex keys, sources) need no escaping and are copied; anything else — an
// error message — goes through json.Marshal, which never fails on a string.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONFloat appends f the way encoding/json formats a float64: like
// ES6 number-to-string, 'e' notation below 1e-6 and from 1e21 up, with the
// exponent's leading zero dropped (1e-07 → 1e-7). The caller guarantees f is
// finite; json.Encoder refuses NaN and ±Inf, and loads are validated to
// (0, 2].
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendHex16 appends v as 16 lower-case hex digits, zero-padded: "%016x".
func appendHex16(dst []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, digits[v>>uint(shift)&0xf])
	}
	return dst
}

// marshalResult encodes a point's result as json.Marshal does, except that
// a non-finite float — the mean latency of a window that delivered nothing
// is NaN — is written as null, which json.Marshal refuses, not as 0, which
// is a value. Only a result that holds one takes the reflective path.
func marshalResult(v any) ([]byte, error) {
	out, err := json.Marshal(v)
	var unsupported *json.UnsupportedValueError
	if !errors.As(err, &unsupported) {
		return out, err
	}
	src := reflect.ValueOf(v)
	dst := reflect.New(nullable(src.Type())).Elem()
	copyNullable(dst, src)
	return json.Marshal(dst.Interface())
}

// nullFloat is a float64 that encodes as null when it is not finite.
type nullFloat float64

func (f nullFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// nullable returns t with every float64 in it — a struct field, a slice or
// pointer element — replaced by nullFloat, field names and tags kept, so
// what is finite encodes byte for byte as before. A struct with an
// unexported or embedded field, which reflect.StructOf cannot copy, stays
// as it is.
func nullable(t reflect.Type) reflect.Type {
	switch t.Kind() {
	case reflect.Float64:
		return reflect.TypeFor[nullFloat]()
	case reflect.Pointer:
		return reflect.PointerTo(nullable(t.Elem()))
	case reflect.Slice:
		return reflect.SliceOf(nullable(t.Elem()))
	case reflect.Struct:
		fields := make([]reflect.StructField, t.NumField())
		for i := range fields {
			f := t.Field(i)
			if !f.IsExported() || f.Anonymous {
				return t
			}
			fields[i] = reflect.StructField{Name: f.Name, Type: nullable(f.Type), Tag: f.Tag}
		}
		return reflect.StructOf(fields)
	}
	return t
}

// copyNullable copies src into dst, whose type is nullable(src's type).
func copyNullable(dst, src reflect.Value) {
	switch {
	case dst.Type() == src.Type():
		dst.Set(src)
	case src.Kind() == reflect.Float64:
		dst.SetFloat(src.Float())
	case src.Kind() == reflect.Pointer:
		if !src.IsNil() {
			dst.Set(reflect.New(dst.Type().Elem()))
			copyNullable(dst.Elem(), src.Elem())
		}
	case src.Kind() == reflect.Slice:
		if !src.IsNil() {
			dst.Set(reflect.MakeSlice(dst.Type(), src.Len(), src.Len()))
			for i := range src.Len() {
				copyNullable(dst.Index(i), src.Index(i))
			}
		}
	case src.Kind() == reflect.Struct:
		for i := range src.NumField() {
			copyNullable(dst.Field(i), src.Field(i))
		}
	}
}
