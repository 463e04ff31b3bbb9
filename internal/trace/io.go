package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// File IO. TBv1 (binary.go) is the one trace format: WriteFile writes
// it, ReadFile and ReadAny read it, and a trailing ".gz" on either side
// adds gzip. A segment manifest (segment.go) loads through ReadFile.

// ioBufSize is the buffered-IO window used by every trace reader and
// writer, so the two sides of each stream are sized consistently.
const ioBufSize = 1 << 20

// Format names a trace serialisation for WriteFileFormat. TBv1 is the
// only one.
type Format int

// FormatTB is the TBv1 binary format (binary.go).
const FormatTB Format = 1

// gzipPath reports whether the path names a gzip-compressed trace
// (".gz", any case — "TRACE.TB.GZ" from a case-mangling Windows share is
// the same trace as "trace.tb.gz").
func gzipPath(path string) bool {
	return strings.HasSuffix(strings.ToLower(path), ".gz")
}

// WriteFile serialises the dataset to a TBv1 file. A path ending in
// ".gz" is transparently gzip-compressed.
func WriteFile(path string, d *Dataset) error {
	return WriteFileFormat(path, d, FormatTB)
}

// WriteFileFormat is WriteFile with the format named explicitly. A
// format other than FormatTB is an error, and no file is created.
func WriteFileFormat(path string, d *Dataset, format Format) error {
	if format != FormatTB {
		return fmt.Errorf("trace: unknown format %d", format)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = encodeStream(f, d, gzipPath(path))
	// The file is closed exactly once on every branch. First error wins:
	// a Close failure after a failed encode must not mask the encode
	// error, and a clean encode followed by a failing Close must not
	// report success (the kernel may only surface ENOSPC here).
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// encodeStream writes d to w as TBv1, optionally wrapped in gzip. Every
// sink error reaches the caller: the codec's buffered flush reports
// plain write errors, and the gzip Close — which flushes the
// compressor's final block, so it can fail even when every codec write
// "succeeded" into the compressor's buffer — is checked on the success
// and error paths alike.
func encodeStream(w io.Writer, d *Dataset, gzipped bool) error {
	var gz *gzip.Writer
	if gzipped {
		gz = gzip.NewWriter(w)
		w = gz
	}
	err := WriteBinary(w, d)
	if gz != nil {
		if cerr := gz.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadFile deserialises a dataset from a file: a TBv1 trace, plain or
// gzipped, or a segment manifest. The kind is sniffed from the content,
// not the name. ReadFile is the only reader of manifests, so their
// relative segment paths resolve against the manifest's own directory,
// not the working directory. A plain trace file's size lets the
// decoder allocate its sample array once (see readBinary).
func ReadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		size = fi.Size()
	}
	br := bufio.NewReaderSize(f, ioBufSize)
	if head, _ := br.Peek(1); len(head) == 1 && head[0] == '{' {
		m, err := decodeManifest(br)
		if err != nil {
			return nil, err
		}
		return readManifestDataset(m, filepath.Dir(path))
	}
	return readAny(br, size)
}
