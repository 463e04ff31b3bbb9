// Package jsonx is the repo's one append-style JSON value encoder, for
// the two per-event streaming writers: telemetry's span JSONL (one line
// per probe) and the anomaly ring (one line per event, under the sink
// lock). They append into reused buffers with alloc contracts, and these
// three functions produce, byte for byte, what encoding/json would have
// marshalled for the same value (pinned by the table test). Documents
// cached per epoch or built per request — the query API — use
// encoding/json: on one published 14-day epoch, marshalling the nine
// snapshot bodies took 6.4 ms against 6.0 ms hand-rolled (DESIGN.md
// §13.2), too little to carry a copy of the encoder for.
package jsonx

import (
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string with encoding/json's default
// escaping: quotes, backslashes, control characters, the HTML-sensitive
// <, >, &, the line separators U+2028/U+2029, and � for invalid
// UTF-8 bytes.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == '"':
			dst = append(dst, '\\', '"')
		case r == '\\':
			dst = append(dst, '\\', '\\')
		case r == '\b':
			dst = append(dst, '\\', 'b')
		case r == '\f':
			dst = append(dst, '\\', 'f')
		case r == '\n':
			dst = append(dst, '\\', 'n')
		case r == '\r':
			dst = append(dst, '\\', 'r')
		case r == '\t':
			dst = append(dst, '\\', 't')
		case r < 0x20 || r == '<' || r == '>' || r == '&':
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[byte(r)>>4], hexDigits[byte(r)&0xf])
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return append(dst, '"')
}

// AppendFloat appends f the way encoding/json's floatEncoder does:
// strconv shortest form, with %e forced for very small/large magnitudes
// and the exponent compacted (e-05 → e-5) to match ES6 number
// formatting. NaN/±Inf, which encoding/json rejects, encode as 0 — the
// producers keep their values finite, so this is a guard for the
// streaming surfaces, not a supported value.
func AppendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, '0')
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// strconv writes "2.5e-05"; json wants "2.5e-5".
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendTime appends t as encoding/json marshals time.Time: a quoted
// RFC3339Nano string.
func AppendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}
