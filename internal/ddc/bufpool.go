package ddc

import (
	"bufio"
	"io"
	"sync"
)

// Report buffer pool — the collection loop's scratch memory.
//
// Every probe needs one byte buffer to render (agent side) or receive
// (coordinator side) a report, and the steady-state loop runs hundreds
// of thousands of probes. Pooling the buffers (instead of allocating per
// probe) is what, together with probe.AppendRender / Parser.ParseBytes,
// makes the per-sample path allocation-free.
//
// Ownership rule: a buffer obtained from the pool is owned by exactly
// one goroutine until putReportBuf returns it. Report slices handed to
// PostCollect alias the buffer and die when the hook returns — see the
// PostCollect lifetime contract in ddc.go.

// reportBufCap seeds new pool buffers with enough capacity for a typical
// W32Probe report (~600 bytes) without a growth copy.
const reportBufCap = 1024

// reportBuf wraps the slice so the pool stores pointers (flagged by vet
// otherwise) and re-pooled growth survives.
type reportBuf struct{ b []byte }

var reportBufPool = sync.Pool{
	New: func() any { return &reportBuf{b: make([]byte, 0, reportBufCap)} },
}

// PoisonBuffers is the pool's use-after-put tripwire. When true, every
// buffer returned to the pool is first overwritten with poisonByte up to
// its full capacity, so any consumer that illegally retained a slice
// aliasing a recycled buffer (violating the PostCollect lifetime
// contract) reads 0xDB garbage instead of silently reading a newer
// probe's report — turning a heisenbug into a deterministic test
// failure. The ddc test binary enables it for the whole package run
// (TestMain); production leaves it off, keeping putReportBuf free.
//
// Flip it only while no collection is in flight — it is read without
// synchronisation on the put path.
var PoisonBuffers = false

// poisonByte fills returned buffers under PoisonBuffers. 0xDB ("dead
// buffer") is outside the report codec's alphabet, so a poisoned read
// can never parse as a valid report.
const poisonByte = 0xDB

// getReportBuf fetches an empty buffer from the pool.
func getReportBuf() *reportBuf {
	rb := reportBufPool.Get().(*reportBuf)
	rb.b = rb.b[:0]
	return rb
}

// putReportBuf returns a buffer to the pool. The caller must not touch
// rb (or any slice aliasing rb.b) afterwards — under PoisonBuffers the
// contents are destroyed right here.
func putReportBuf(rb *reportBuf) {
	if PoisonBuffers {
		full := rb.b[:cap(rb.b)]
		for i := range full {
			full[i] = poisonByte
		}
	}
	reportBufPool.Put(rb)
}

// connReaderPool pools the bufio.Readers the TCP transport wraps around
// connections — the agent and the executor each used to allocate a fresh
// 4 KB reader per probe.
var connReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 4096) },
}

// getConnReader rents a bufio.Reader positioned on r.
func getConnReader(r io.Reader) *bufio.Reader {
	br := connReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// putConnReader returns a reader to the pool, dropping its reference to
// the underlying connection.
func putConnReader(br *bufio.Reader) {
	br.Reset(nil)
	connReaderPool.Put(br)
}
