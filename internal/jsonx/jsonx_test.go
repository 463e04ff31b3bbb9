package jsonx

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// marshal is the reference: what encoding/json emits for v.
func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "plain", "L01-M07", `quote " and \ backslash`,
		"tab\tnewline\ncarriage\rbackspace\bformfeed\f",
		"<script>alert('x') && y</script>",
		"line\u2028sep\u2029arators", "\u2027 and \u202a are not escaped",
		"café 世界 \U0001f600", "invalid \xff\xfe utf8 \xc3", "del \x7f",
		"ctrl \x00\x01\x1f", "utf8 héllo 世界 ✓", "sótão\n", "mixed\x7f",
	}
	for c := 0; c < 0x20; c++ {
		cases = append(cases, "ctl"+string(rune(c))+"x")
	}
	for _, s := range cases {
		if got, want := string(AppendString(nil, s)), marshal(t, s); got != want {
			t.Errorf("AppendString(%q) = %s, encoding/json %s", s, got, want)
		}
	}
	// Appends after existing content, without disturbing it.
	if got := string(AppendString([]byte(`{"k":`), "v")); got != `{"k":"v"` {
		t.Errorf("append onto prefix = %s", got)
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 97.93, 583653, 1e6, 123456789.125,
		// Exponent edges: %e below 1e-6 and from 1e21 up, compacted exponent.
		1e-6, 9.999999e-7, 1e-7, 2.5e-5, 2.5e-05, 1.5e-10, 1e-100, 5e-324,
		1e20, 999999999999999900000, 1e21, 1.5e21, 1e22, 1e100, math.MaxFloat64,
		-1e-7, -1e21, float64(float32(0.1)),
		0.5, 1e-5, 9.999e-7, 2.5e-20, 123456789012345678901.0, -2.5e-7, -0.0001,
		math.Pi, 84.87, 0.512345678901,
	}
	for _, f := range cases {
		if got, want := string(AppendFloat(nil, f)), marshal(t, f); got != want {
			t.Errorf("AppendFloat(%g) = %s, encoding/json %s", f, got, want)
		}
	}
	// encoding/json refuses non-finite values; the policy here is 0.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("encoding/json accepted %g; the 0 policy needs revisiting", f)
		}
		if got := string(AppendFloat(nil, f)); got != "0" {
			t.Errorf("AppendFloat(%g) = %s, want 0", f, got)
		}
	}
}

func TestAppendTimeMatchesEncodingJSON(t *testing.T) {
	cases := []time.Time{
		{},
		time.Date(2003, 10, 6, 8, 0, 0, 0, time.UTC),
		time.Date(2003, 10, 6, 8, 15, 1, 500, time.UTC),
		time.Date(2003, 10, 6, 8, 15, 1, 120000000, time.UTC),
		time.Date(2026, 8, 6, 9, 0, 0, 999999999, time.FixedZone("WEST", 3600)),
		time.Date(2003, 12, 31, 23, 59, 59, 0, time.FixedZone("", -5*3600-30*60)),
	}
	for _, tm := range cases {
		if got, want := string(AppendTime(nil, tm)), marshal(t, tm); got != want {
			t.Errorf("AppendTime(%v) = %s, encoding/json %s", tm, got, want)
		}
	}
}

func TestAppendsAllocFreeIntoWarmBuffer(t *testing.T) {
	buf := make([]byte, 0, 256)
	at := time.Date(2003, 10, 6, 8, 15, 1, 500, time.UTC)
	if allocs := testing.AllocsPerRun(100, func() {
		b := AppendString(buf[:0], "L01-M07 <ok> \u2028")
		b = AppendFloat(b, 2.5e-5)
		b = AppendTime(b, at)
		buf = b[:0]
	}); allocs != 0 {
		t.Errorf("appends allocate %.1f objects/run into a warm buffer, want 0", allocs)
	}
}
