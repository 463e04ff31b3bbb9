package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchDecl is the part of BENCHMARK.json that -compare and the smoke
// test read.
type benchDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one end-to-end metric on one workload.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict compares two series of one metric. worse is how much the new
// median is worse than the old, as a share of the old. A metric whose
// run-to-run spread on either side is wider than the bound cannot be
// told apart from noise and is unresolved — unless every new run reads
// better than every old one.
func verdict(old, cur *Series, lowerIsBetter bool, bound float64) (v string, worse float64) {
	if old.Median != 0 {
		worse = (cur.Median - old.Median) / old.Median
	}
	if !lowerIsBetter {
		worse = -worse
	}
	noise := max(old.Spread, cur.Spread)
	if noise > bound {
		if allBetter(old.Values, cur.Values, lowerIsBetter) {
			return improved, worse
		}
		return unresolved, worse
	}
	switch {
	case worse > bound:
		return regressed, worse
	case worse < -noise:
		return improved, worse
	}
	return unchanged, worse
}

// allBetter reports whether every value of cur beats every value of old.
func allBetter(old, cur []float64, lowerIsBetter bool) bool {
	if len(old) == 0 || len(cur) == 0 {
		return false
	}
	for _, c := range cur {
		for _, o := range old {
			if lowerIsBetter && c >= o || !lowerIsBetter && c <= o {
				return false
			}
		}
	}
	return true
}

func failedShare(w *WorkloadSet) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// compareFiles prints, per workload and metric, how the new result set
// stands against the old one, and reports whether anything regressed: an
// end-to-end metric beyond its bound, a higher failed share, or a count
// or trace digest that should repeat exactly and does not.
func compareFiles(w io.Writer, benchPath, oldPath, newPath string) (bad bool, err error) {
	var decl benchDecl
	var old, cur ResultSet
	for path, v := range map[string]any{benchPath: &decl, oldPath: &old, newPath: &cur} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	if old.Schema != resultSchema || cur.Schema != resultSchema {
		return false, fmt.Errorf("result sets must have schema %q", resultSchema)
	}
	sameSeeds := old.Seed == cur.Seed
	fmt.Fprintf(w, "compare %s (%s) -> %s (%s)\n", oldPath, old.Label, newPath, cur.Label)
	tally := map[string]int{}
	for _, cw := range cur.Workloads {
		ow := old.workload(cw.Workload)
		if ow == nil {
			fmt.Fprintf(w, "%s: not in the old set\n", cw.Workload)
			continue
		}
		fmt.Fprintf(w, "%s\n", cw.Workload)
		for _, d := range decl.EndToEnd {
			o, c := ow.EndToEnd[d.Name], cw.EndToEnd[d.Name]
			if o == nil || c == nil {
				continue
			}
			v, worse := verdict(o, c, d.Better == "lower", d.Bound)
			tally[v]++
			bad = bad || v == regressed
			fmt.Fprintf(w, "  %-26s %12.6g -> %12.6g %-5s %+6.1f%% worse, bound %.0f%%, spread %.1f%% / %.1f%%: %s\n",
				d.Name, o.Median, c.Median, d.Unit, 100*worse, 100*d.Bound, 100*o.Spread, 100*c.Spread, v)
		}
		for _, d := range userDefs {
			if o, c := ow.User[d.Name], cw.User[d.Name]; o != nil && c != nil && o.Median != 0 {
				fmt.Fprintf(w, "  %-26s %12.6g -> %12.6g %-5s %+6.1f%%, no bound, spread %.1f%% / %.1f%%\n",
					d.Name, o.Median, c.Median, d.Unit, 100*(c.Median-o.Median)/o.Median, 100*o.Spread, 100*c.Spread)
			}
		}
		if fo, fc := failedShare(ow), failedShare(cw); fc > fo {
			bad = true
			fmt.Fprintf(w, "  failed_share %g -> %g: regressed\n", fo, fc)
		}
		for _, d := range decl.PerLayer {
			o, okO := ow.PerLayer[d.Name]
			c, okC := cw.PerLayer[d.Name]
			if !okO || !okC || o.Value == 0 && c.Value == 0 {
				continue // not in both sets, or a stage this workload never enters
			}
			note := ""
			if exactCounts[d.Name] && sameSeeds {
				note = "exact"
				if o.Value != c.Value {
					note, bad = "MISMATCH: a count that a seed fixes has changed", true
				}
			}
			fmt.Fprintf(w, "  %-26s %12.6g -> %12.6g %-5s %s\n", d.Name, o.Value, c.Value, d.Unit, note)
		}
		if sameSeeds {
			for i := 0; i < len(ow.Checks) && i < len(cw.Checks); i++ {
				if ow.Checks[i].TBFNV64 != cw.Checks[i].TBFNV64 {
					bad = true
					fmt.Fprintf(w, "  seed %d: TBv1 bytes differ (%s -> %s): MISMATCH\n", cw.Seeds[i], ow.Checks[i].TBFNV64, cw.Checks[i].TBFNV64)
				}
			}
		}
	}
	fmt.Fprintf(w, "end-to-end: %d improved, %d unchanged, %d regressed, %d unresolved\n",
		tally[improved], tally[unchanged], tally[regressed], tally[unresolved])
	return bad, nil
}
