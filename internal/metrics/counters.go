package metrics

import (
	"fmt"
	"strings"

	"icash/internal/core"
)

// Counter is one named monotonic count, used to export fault, retry and
// degradation accounting in a stable, table-friendly order.
type Counter struct {
	Name  string
	Value int64
}

// ResilienceCounters flattens the controller's fault-handling and
// self-healing statistics into an ordered counter list. The order is
// part of the contract: tools print and diff these tables.
func ResilienceCounters(st *core.Stats) []Counter {
	return []Counter{
		{"transient_retries", st.TransientRetries},
		{"retry_backoff_ns", int64(st.RetryBackoffTime)},
		{"ssd_read_faults", st.SSDReadFaults},
		{"ssd_write_faults", st.SSDWriteFaults},
		{"hdd_read_faults", st.HDDReadFaults},
		{"hdd_write_faults", st.HDDWriteFaults},
		{"slot_scrubs", st.SlotScrubs},
		{"slot_scrub_repairs", st.SlotScrubRepairs},
		{"scrub_data_loss", st.ScrubDataLoss},
		{"slots_retired", st.SlotsRetired},
		{"bad_log_blocks", st.BadLogBlocks},
		{"torn_log_blocks", st.TornLogBlocks},
		{"dropped_log_records", st.DroppedLogRecs},
		{"degrade_events", st.DegradeEvents},
		{"degraded_data_loss", st.DegradedDataLoss},
		{"degraded_ops", st.DegradedOps},
		// Fail-slow handling (appended: the order above is frozen).
		{"deadline_exceeded", st.DeadlineExceeded},
		{"hedged_reads", st.HedgedReads},
		{"hedge_wins", st.HedgeWins},
		{"hedge_cancels", st.HedgeCancels},
		{"hedge_saved_ns", int64(st.HedgeSavedTime)},
		{"deadline_give_ups", st.DeadlineGiveUps},
		{"quarantine_events", st.QuarantineEvents},
		{"readmit_events", st.ReadmitEvents},
		{"quarantined_ops", st.QuarantinedOps},
		{"quarantine_skips", st.QuarantineSkips},
	}
}

// JournalCounters flattens the group-commit journal's accounting into
// an ordered counter list: how many transactions committed, how much
// payload each burst carried, the device time the commit writes cost,
// and what recovery had to throw away. The order is part of the
// contract: tools print and diff these tables.
func JournalCounters(st *core.Stats) []Counter {
	counters := []Counter{
		{"txns_committed", st.TxnsCommitted},
		{"group_commit_bytes", st.GroupCommitBytes},
		{"commit_write_ns", int64(st.CommitWriteTime)},
		{"txns_discarded_on_replay", st.TxnsDiscardedOnReplay},
	}
	labels := [...]string{"<=4KiB", "<=16KiB", "<=64KiB", "<=256KiB", "<=1MiB", ">1MiB"}
	for i, n := range st.GroupCommitBatchHist {
		counters = append(counters, Counter{"batch_" + labels[i], n})
	}
	return counters
}

// IntegrityCounters flattens the controller's end-to-end integrity
// accounting (checksums, scrubbing, verified repair) into an ordered
// counter list. The order is part of the contract: tools print and
// diff these tables.
func IntegrityCounters(st *core.Stats) []Counter {
	return []Counter{
		{"corruptions_detected", st.CorruptionsDetected},
		{"corruptions_repaired", st.CorruptionsRepaired},
		{"unrepairable_blocks", st.UnrepairableBlocks},
		{"scrub_passes", st.ScrubPasses},
		{"scrub_slot_checks", st.ScrubSlotChecks},
		{"scrub_home_checks", st.ScrubHomeChecks},
	}
}

// FormatCounters renders counters one per line with the given indent,
// skipping zero entries when skipZero is set (quiet tables for healthy
// runs).
func FormatCounters(counters []Counter, indent string, skipZero bool) string {
	var b strings.Builder
	for _, c := range counters {
		if skipZero && c.Value == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s%-22s %d\n", indent, c.Name, c.Value)
	}
	return b.String()
}
