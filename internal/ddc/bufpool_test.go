package ddc

import (
	"bytes"
	"os"
	"testing"
	"time"

	"winlab/internal/machine"
	"winlab/internal/probe"
	"winlab/internal/sim"
)

// TestMain turns on buffer poisoning for the whole package run: every
// report buffer returned to the pool is destroyed on put, so any test
// path that illegally retains a report slice past its PostCollect hook
// reads 0xDB garbage and fails loudly instead of passing by luck. Production keeps PoisonBuffers off.
func TestMain(m *testing.M) {
	PoisonBuffers = true
	os.Exit(m.Run())
}

// TestPoisonOnPutDestroysAliases pins the poisoning semantics at the
// pool level: a slice aliasing a returned buffer is overwritten up to
// the buffer's full capacity, and the poisoned bytes can never parse as
// a report.
func TestPoisonOnPutDestroysAliases(t *testing.T) {
	m := newMachine("M1")
	m.PowerOn(t0)
	sn := mustSnapshot(t, m, t0.Add(10*time.Minute))

	rb := getReportBuf()
	rb.b = probe.AppendRender(rb.b, sn)
	alias := rb.b // the illegal retention a buggy hook would commit
	if _, err := probe.NewParser().ParseBytes(alias); err != nil {
		t.Fatalf("rendered report does not parse: %v", err)
	}

	putReportBuf(rb)
	for i, c := range alias {
		if c != poisonByte {
			t.Fatalf("alias[%d] = %#x after put, want %#x (buffer not poisoned)", i, c, poisonByte)
		}
	}
	if _, err := probe.NewParser().ParseBytes(alias); err == nil {
		t.Error("poisoned bytes parsed as a valid report")
	}

	// The next get hands back a clean, empty buffer: poison must never
	// leak into a fresh rendering.
	rb2 := getReportBuf()
	defer putReportBuf(rb2)
	out := probe.AppendRender(rb2.b, sn)
	if bytes.IndexByte(out, poisonByte) >= 0 {
		t.Error("fresh rendering contains poison bytes")
	}
	if _, err := probe.NewParser().ParseBytes(out); err != nil {
		t.Errorf("re-rendered report does not parse: %v", err)
	}
}

// TestCollectionRetainsNothing runs a real sim collection (each
// iteration batch rents one pooled buffer as its report arena) with a
// PostCollect hook that snapshots each report by copy and stashes the
// raw slice by reference. With poisoning on, the copies must survive
// intact while the retained aliases are destroyed by the time the run
// ends — proving the collector returns every rented buffer and that
// honest hooks (which parse or copy before returning) never observe
// poison.
func TestCollectionRetainsNothing(t *testing.T) {
	src := multiSource{ms: map[string]*machine.Machine{}}
	for _, id := range []string{"M1", "M2"} {
		m := newMachine(id)
		m.PowerOn(t0.Add(-time.Hour))
		src.ms[id] = m
	}

	type captured struct {
		copy  []byte
		alias []byte
	}
	var got []captured
	eng := sim.New(t0)
	end := t0.Add(31 * time.Minute)
	oneShard{
		Cfg: Config{
			Machines:    []string{"M1", "M2"},
			Period:      15 * time.Minute,
			LatencyOK:   func() time.Duration { return time.Second },
			LatencyFail: func() time.Duration { return 4 * time.Second },
		},
		Exec: &Direct{Source: src, Now: eng.Now},
		Post: func(iter int, machine string, stdout []byte, err error) {
			if err != nil {
				return
			}
			got = append(got, captured{
				copy:  append([]byte(nil), stdout...),
				alias: stdout, // contract violation, on purpose
			})
		},
	}.run(t, eng, t0, end)

	if len(got) == 0 {
		t.Fatal("no reports captured")
	}
	for i, c := range got {
		if _, err := probe.NewParser().ParseBytes(c.copy); err != nil {
			t.Errorf("report %d: honest copy corrupted: %v", i, err)
		}
		if bytes.IndexByte(c.alias, poisonByte) < 0 {
			t.Errorf("report %d: retained alias survived un-poisoned — buffer not recycled?", i)
		}
	}
}
