package anomaly

import (
	"strconv"

	"winlab/internal/jsonx"
)

// appendEventJSON appends one event encoded exactly as encoding/json
// would (field order, omitempty machine/lab/detail, HTML-safe string
// escaping, RFC3339Nano time, shortest-round-trip floats) — the same
// contract as telemetry's appendSpanJSON, pinned byte-identical by
// TestAppendEventJSONMatchesEncodingJSON. Unlike the span encoder it
// does not append a newline: the ring reuses it for both JSONL lines
// and the /events array body.
func appendEventJSON(dst []byte, e Event) []byte {
	dst = append(dst, `{"t":`...)
	dst = jsonx.AppendTime(dst, e.Time)
	dst = append(dst, `,"kind":`...)
	dst = jsonx.AppendString(dst, string(e.Kind))
	dst = append(dst, `,"severity":`...)
	dst = jsonx.AppendString(dst, string(e.Severity))
	if e.Machine != "" {
		dst = append(dst, `,"machine":`...)
		dst = jsonx.AppendString(dst, e.Machine)
	}
	if e.Lab != "" {
		dst = append(dst, `,"lab":`...)
		dst = jsonx.AppendString(dst, e.Lab)
	}
	dst = append(dst, `,"first_iter":`...)
	dst = strconv.AppendInt(dst, int64(e.FirstIter), 10)
	dst = append(dst, `,"last_iter":`...)
	dst = strconv.AppendInt(dst, int64(e.LastIter), 10)
	dst = append(dst, `,"score":`...)
	dst = jsonx.AppendFloat(dst, e.Score)
	if e.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = jsonx.AppendString(dst, e.Detail)
	}
	return append(dst, '}')
}
