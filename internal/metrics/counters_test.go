package metrics

import (
	"strings"
	"testing"

	"icash/internal/core"
)

func TestResilienceCountersComplete(t *testing.T) {
	st := core.Stats{
		TransientRetries: 3,
		SlotScrubs:       5,
		DegradeEvents:    1,
	}
	cs := ResilienceCounters(&st)
	seen := map[string]int64{}
	for _, c := range cs {
		if _, dup := seen[c.Name]; dup {
			t.Fatalf("duplicate counter %q", c.Name)
		}
		seen[c.Name] = c.Value
	}
	if seen["transient_retries"] != 3 || seen["slot_scrubs"] != 5 || seen["degrade_events"] != 1 {
		t.Fatalf("counter values not carried through: %v", seen)
	}
	// The order is part of the contract: retries first, new counter
	// groups appended at the end (fail-slow handling is the newest).
	if cs[0].Name != "transient_retries" || cs[len(cs)-1].Name != "quarantine_skips" {
		t.Fatalf("counter order changed: first %q last %q", cs[0].Name, cs[len(cs)-1].Name)
	}
}

func TestJournalCountersComplete(t *testing.T) {
	st := core.Stats{
		TxnsCommitted:         7,
		GroupCommitBytes:      12345,
		TxnsDiscardedOnReplay: 2,
	}
	st.GroupCommitBatchHist[0] = 5
	st.GroupCommitBatchHist[1] = 2
	cs := JournalCounters(&st)
	seen := map[string]int64{}
	for _, c := range cs {
		if _, dup := seen[c.Name]; dup {
			t.Fatalf("duplicate counter %q", c.Name)
		}
		seen[c.Name] = c.Value
	}
	if seen["txns_committed"] != 7 || seen["group_commit_bytes"] != 12345 ||
		seen["txns_discarded_on_replay"] != 2 || seen["batch_<=4KiB"] != 5 || seen["batch_<=16KiB"] != 2 {
		t.Fatalf("counter values not carried through: %v", seen)
	}
	// One counter per histogram bucket plus the four scalars; order is
	// part of the contract (scalars first, buckets ascending).
	if len(cs) != 4+len(st.GroupCommitBatchHist) {
		t.Fatalf("want %d counters, got %d", 4+len(st.GroupCommitBatchHist), len(cs))
	}
	if cs[0].Name != "txns_committed" || cs[len(cs)-1].Name != "batch_>1MiB" {
		t.Fatalf("counter order changed: first %q last %q", cs[0].Name, cs[len(cs)-1].Name)
	}
}

func TestFormatCounters(t *testing.T) {
	cs := []Counter{{"alpha", 1}, {"beta", 0}, {"gamma", 7}}
	all := FormatCounters(cs, "  ", false)
	if n := strings.Count(all, "\n"); n != 3 {
		t.Fatalf("want 3 lines, got %d:\n%s", n, all)
	}
	quiet := FormatCounters(cs, "  ", true)
	if strings.Contains(quiet, "beta") {
		t.Fatalf("skipZero kept a zero entry:\n%s", quiet)
	}
	if !strings.Contains(quiet, "alpha") || !strings.Contains(quiet, "gamma") {
		t.Fatalf("skipZero dropped a nonzero entry:\n%s", quiet)
	}
	if FormatCounters([]Counter{{"z", 0}}, "", true) != "" {
		t.Fatal("all-zero table should format to empty string")
	}
}
