package main

import (
	"bufio"
	"encoding/csv"
	"io"
	"strconv"
	"time"

	"winlab/internal/trace"
)

// CSV export: a write-only, human-readable view of a trace, one record
// per line with a leading record-type column. Nothing reads it back;
// TBv1 is the trace format.
//
//	H : header — format version, start, end, period-seconds
//	M : machine metadata — id, lab, ram-mb, disk-gb, int-index, fp-index
//	    [, join-iter, leave-iter]
//	I : iteration — iter, start, attempted, responded, end, parse-errors
//	S : sample — see sampleRow

const formatVersion = "winlab-trace-1"

const timeFormat = time.RFC3339

// writeCSV serialises the dataset in the CSV export format.
func writeCSV(w io.Writer, d *trace.Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"H", formatVersion,
		d.Start.UTC().Format(timeFormat), d.End.UTC().Format(timeFormat),
		strconv.FormatInt(int64(d.Period/time.Second), 10)}); err != nil {
		return err
	}
	for _, m := range d.Machines {
		rec := []string{"M", m.ID, m.Lab,
			strconv.Itoa(m.RAMMB), fmtF(m.DiskGB), fmtF(m.IntIndex), fmtF(m.FPIndex)}
		// Lifetime bounds ride as two trailing fields, only for
		// partial-lifetime machines.
		if m.PartialLifetime() {
			rec = append(rec, strconv.Itoa(m.JoinIter), strconv.Itoa(m.LeaveIter))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	for _, it := range d.Iterations {
		end := ""
		if !it.End.IsZero() {
			end = it.End.UTC().Format(timeFormat)
		}
		if err := cw.Write([]string{"I", strconv.Itoa(it.Iter),
			it.Start.UTC().Format(timeFormat),
			strconv.Itoa(it.Attempted), strconv.Itoa(it.Responded),
			end, strconv.Itoa(it.ParseErrors)}); err != nil {
			return err
		}
	}
	for i := range d.Samples {
		if err := cw.Write(sampleRow(&d.Samples[i])); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

func sampleRow(s *trace.Sample) []string {
	sess := ""
	if s.HasSession() {
		sess = s.SessionStart.UTC().Format(timeFormat)
	}
	return []string{"S",
		strconv.Itoa(s.Iter),
		s.Time.UTC().Format(timeFormat),
		s.Machine,
		s.Lab,
		s.BootTime.UTC().Format(timeFormat),
		strconv.FormatInt(int64(s.Uptime/time.Second), 10),
		strconv.FormatFloat(s.CPUIdle.Seconds(), 'f', 1, 64),
		strconv.Itoa(s.MemLoadPct),
		strconv.Itoa(s.SwapLoadPct),
		fmtF(s.DiskGB),
		fmtF(s.FreeDiskGB),
		strconv.FormatInt(s.PowerCycles, 10),
		strconv.FormatInt(s.PowerOnHours, 10),
		strconv.FormatUint(s.SentBytes, 10),
		strconv.FormatUint(s.RecvBytes, 10),
		s.SessionUser,
		sess,
	}
}

func fmtF(f float64) string { return strconv.FormatFloat(f, 'f', 3, 64) }
