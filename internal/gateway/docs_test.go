package gateway

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"tnb/internal/metrics"
	"tnb/internal/netserver"
	"tnb/internal/stagegraph"
	"tnb/internal/stream"
	"tnb/internal/tracestore"
)

// TestMetricsDocumented keeps the README metric table exact in both
// directions: every instrument the gateway process registers appears in
// the table, and the table names nothing that no longer exists. Labeled
// variants collapse to their base name, matching how the table documents
// `tnb_stage_duration_seconds{stage=...}` once for all stages.
func TestMetricsDocumented(t *testing.T) {
	reg := metrics.NewRegistry()
	// The full instrumentation stack of a running gateway process, plus the
	// netserver layer and one probe shard so the labeled per-shard
	// instruments register under their base names.
	NewMetrics(reg)
	stream.NewMetrics(reg)
	stagegraph.NewPipelineMetrics(reg)
	netserver.NewMetrics(reg)
	tracestore.NewMetrics(reg)
	NewShardMetrics(reg, ShardKey{Channel: 0, SF: 8})

	registered := map[string]bool{}
	for name := range reg.Snapshot() {
		registered[baseName(name)] = true
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`(tnb_[a-z0-9_]+)[^`]*`").FindAllStringSubmatch(string(readme), -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("no tnb_* metric names found in README.md")
	}

	for _, name := range sortedKeys(registered) {
		if !documented[name] {
			t.Errorf("metric %s is registered but missing from the README table", name)
		}
	}
	for _, name := range sortedKeys(documented) {
		if !registered[name] {
			t.Errorf("README documents %s, which no gateway instrument registers", name)
		}
	}
}

// baseName strips a {label="..."} suffix and the _bucket/_count/_sum
// expansions a histogram may carry in snapshots.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	return name
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
