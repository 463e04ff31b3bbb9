package anomaly

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadEventsJSONL feeds the -events-out reader arbitrary bytes. It
// must never panic, and a stream it accepts must survive the ring's
// JSONL writer: re-encoded event by event and read back, it gives the
// same events.
func FuzzReadEventsJSONL(f *testing.F) {
	var stream bytes.Buffer
	r := NewRing(len(goldenEvents))
	r.SetWriter(&stream)
	for _, e := range goldenEvents {
		r.Add(e)
	}
	valid := stream.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(valid[:len(valid)/2])                                            // a truncated tail
	f.Add([]byte("\n  \n" + `{"kind":"reboot-storm"}` + "\r\n\n"))         // blank lines, CRLF
	f.Add([]byte(`{"t":"2003-10-06T10:00:00.5+02:00","score":-0}` + "\n")) // an offset, a negative zero
	f.Add([]byte("null\n[]\n"))
	f.Add([]byte(`{"first_iter":99999999999999999999}`))
	f.Add([]byte(`{"detail":" \ud800"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEventsJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		r := NewRing(1)
		r.SetWriter(&out)
		for _, e := range events {
			r.Add(e)
		}
		if err := r.WriteErr(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadEventsJSONL(&out)
		if err != nil {
			t.Fatalf("the ring's own stream does not read back: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("round trip changed the events:\n%+v\n%+v", events, again)
		}
	})
}
