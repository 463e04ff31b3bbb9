package probe

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"winlab/internal/machine"
)

// sameParse fails t unless a parse result equals the oracle's: the same
// snapshot (partial on error), and the same error line and message.
func sameParse(t *testing.T, what string, got machine.Snapshot, err error, want machine.Snapshot, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, oracle %v", what, err, werr)
	}
	if err != nil {
		pe, ok := err.(*ParseError)
		if !ok {
			t.Fatalf("%s: error is %T, want *ParseError", what, err)
		}
		if wpe := werr.(*ParseError); *pe != *wpe {
			t.Fatalf("%s: error %q, oracle %q", what, err, werr)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: snapshot differs from the oracle's:\n got %+v\nwant %+v", what, got, want)
	}
}

// FuzzParseBytes is differential: on arbitrary input the predictive
// parser must return what the oracle parser (parse_oracle_test.go)
// returns — snapshot, error line and message — both without a target and
// through one warm parser with a target, whose memo holds the canonical
// report's static block before each input and the input's own after it,
// so mutated static blocks meet both a memo hit and a miss. A report that
// parses must also be a renderable fixed point (Render∘Parse idempotent).
// `make fuzz` runs this with -fuzz for a bounded time; under plain `go
// test` the seed corpus still executes.
func FuzzParseBytes(f *testing.F) {
	demo := demoSnapshot()
	full := Render(demo)
	f.Add(append([]byte(nil), full...))
	f.Add(full[:len(full)/2])                                    // truncated mid-report
	f.Add([]byte(""))                                            // empty
	f.Add([]byte("NOTAPROBE/9\nmachine: x\n"))                   // wrong magic
	f.Add([]byte(Version + "\nmachine L01\n"))                   // missing colon
	f.Add([]byte(Version + "\nmachine: x\n"))                    // missing mandatory keys
	f.Add([]byte(Version + "\ncpu.mhz: 99999999999999999999\n")) // overflow
	f.Add([]byte(Version + "\nuptime.sec: 1e309\n"))             // float overflow
	f.Add([]byte(Version + "\nnet.4294967295.mac: a\n net.00.mac : b\n"))
	f.Add([]byte(Version + "\ntime: 2003-02-30T10:15:00Z\n")) // bad calendar day
	f.Add(bytes.Repeat([]byte(Version+"\n"), 2))
	static := full[bytes.Index(full, []byte("os: ")):bytes.Index(full, []byte("disk.0.smart"))]
	f.Add(bytes.Replace(full, []byte("mem.total.mb: 512"), []byte("mem.total.mb: 1024"), 1)) // hardware refresh
	f.Add(bytes.Replace(full, []byte("net.1.mac"), []byte("net.0.mac"), 1))                  // duplicate MAC index
	f.Add(append(append([]byte(nil), full...), static...))                                   // static block twice
	f.Add(bytes.Replace(full, []byte("\nos: "), []byte("\nnet.5.mac: X\nos: "), 1))          // a MAC before the block
	f.Add(append(append([]byte(nil), full...), "net.9.mac: Y\n"...))                         // a MAC after it
	f.Add(bytes.Replace(full, []byte("machine: "+demo.ID), []byte("machine: other"), 1))     // report names another machine
	f.Add([]byte(strings.Replace(string(full), "time: 2003-10-06T10:15:00Z", "time: 2000-02-29T23:59:59Z", 1)))
	f.Add(bytes.TrimSuffix(full[:bytes.Index(full, []byte("disk.0.smart"))], []byte("\n"))) // block without its newline

	p := NewParser()
	warm := NewParser()
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := newOracleParser().ParseBytes(data)
		got, err := p.ParseBytes(data)
		sameParse(t, "ParseBytes", got, err, want, werr)
		if _, err := warm.ParseTarget(demo.ID, full); err != nil {
			t.Fatal(err)
		}
		got, err = warm.ParseTarget(demo.ID, data)
		sameParse(t, "ParseTarget after the canonical block", got, err, want, werr)
		got, err = warm.ParseTarget(demo.ID, data)
		sameParse(t, "ParseTarget after its own block", got, err, want, werr)
		if err != nil {
			return
		}
		// A successful parse must be stable under a render/parse cycle.
		rendered := AppendRender(nil, got)
		again, err := p.ParseBytes(rendered)
		if err != nil {
			t.Fatalf("re-parse of rendered snapshot failed: %v\nreport: %q", err, rendered)
		}
		again2, err := p.ParseBytes(AppendRender(nil, again))
		if err != nil {
			t.Fatalf("third parse failed: %v", err)
		}
		if !reflect.DeepEqual(again, again2) {
			t.Fatalf("Render∘Parse not a fixed point:\n%+v\n%+v", again, again2)
		}
	})
}
