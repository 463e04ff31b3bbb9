// Package probe implements W32Probe, the console probe the paper executed
// remotely on every machine (§3): rendering a machine snapshot to the
// probe's stdout text report, and parsing such reports back.
//
// The report is a versioned, line-oriented "key: value" format — the kind
// of output a win32 console probe would print. Everything the collector
// and the analysis know about a machine passes through this format, which
// keeps the boundary between fleet and collector honest: the analysis can
// never peek at simulator internals.
//
// The codec is in codec.go: AppendRender appends a report to a buffer, and
// a Parser decodes reports in place.
package probe

import (
	"fmt"
	"time"
)

// Version identifies the report format.
const Version = "W32PROBE/1.0"

// timeLayout is the timestamp format used in reports.
const timeLayout = time.RFC3339

// ParseError describes a malformed probe report.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("probe: parse error at line %d: %s", e.Line, e.Msg)
}
