package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"winlab/internal/core"
)

// TestReplicateWalksConsecutiveSeeds: -seed 1 -replicate 3 must run seeds
// 1, 2 and 3, each derived from the base seed rather than from the
// previous replication's.
func TestReplicateWalksConsecutiveSeeds(t *testing.T) {
	cfg := core.DefaultConfig(1)
	cfg.Days = 1
	var out, log bytes.Buffer
	if err := replicate(&out, &log, cfg, 3); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("progress lines = %q", lines)
	}
	for i, line := range lines {
		if want := fmt.Sprintf("(seed %d)", i+1); !strings.HasSuffix(line, want) {
			t.Errorf("replication %d: %q, want seed %d", i+1, line, i+1)
		}
	}
	if !strings.Contains(out.String(), "over 3 seeds") {
		t.Errorf("summary table missing:\n%s", out.String())
	}
}
