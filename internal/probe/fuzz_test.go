package probe

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseBytes hammers the in-place parser with arbitrary input:
// malformed reports must return an error, never panic, and a report that
// parses must be a renderable fixed point (Render∘Parse idempotent).
// `make fuzz` runs this with -fuzz for a bounded time; under plain `go
// test` the seed corpus still executes.
func FuzzParseBytes(f *testing.F) {
	full := Render(demoSnapshot())
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

	p := NewParser()
	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := p.ParseBytes(data)
		sn2, err2 := ParseBytes(data) // pooled entry point agrees
		if (err == nil) != (err2 == nil) {
			t.Fatalf("Parser (%v) and ParseBytes (%v) disagree on error", err, err2)
		}
		if err != nil {
			if _, ok := err.(*ParseError); !ok {
				t.Fatalf("error is %T, want *ParseError", err)
			}
			return
		}
		if !reflect.DeepEqual(sn, sn2) {
			t.Fatalf("Parser and ParseBytes disagree:\n%+v\n%+v", sn, sn2)
		}
		// A successful parse must be stable under a render/parse cycle.
		rendered := AppendRender(nil, sn)
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
