package core

import (
	"reflect"

	"icash/internal/blockdev"
	"icash/internal/sim"
)

// Stats aggregates controller activity for the experiment harness and
// the inspection tool.
type Stats struct {
	// Host-visible request accounting (latency per request).
	blockdev.Stats

	// Path counters.
	ReadRAMHits   int64 // reads served entirely from controller RAM
	ReadSSDHits   int64 // reads needing an SSD reference read
	ReadLogLoads  int64 // reads that loaded a packed delta block from the log
	ReadHDDMisses int64 // reads that went to the HDD home location
	DecodeOps     int64 // delta decodes (read path)
	EncodeOps     int64 // delta encodes (write path)

	// Write-path outcomes.
	WriteDelta       int64 // writes stored as deltas
	WriteThroughSSD  int64 // oversized deltas written directly to SSD (§5.3)
	WriteIndependent int64 // writes to independent blocks (RAM + home)
	WriteRAMFallback int64 // write-throughs that found no SSD slot

	// Delta bookkeeping.
	DeltaBytesStored int64 // sum of encoded delta sizes accepted
	DeltaCount       int64 // number of deltas accepted
	// DeltaSizeHist counts accepted deltas by size bucket: <=64, <=128,
	// <=256, <=512, <=1024, <=2048 bytes — the paper's content-locality
	// claim made visible (most deltas are tiny).
	DeltaSizeHist    [6]int64
	FlushRuns        int64 // delta-pack flushes
	LogBlocksWritten int64 // packed delta blocks appended to the log
	DeltasPacked     int64 // deltas packed into the log
	LogCleanerRuns   int64 // transactions compacted (live records rescued)
	DeltasRescued    int64 // live deltas re-packed by the compactor

	// Group-commit journal accounting (see log.go §12 in DESIGN.md).
	TxnsCommitted    int64        // journal transactions made durable
	GroupCommitBytes int64        // payload bytes across all committed txns
	CommitWriteTime  sim.Duration // device time spent on commit-record writes
	// GroupCommitBatchHist counts committed transactions by payload
	// size bucket: <=4KiB (one part), <=16KiB, <=64KiB, <=256KiB,
	// <=1MiB, larger — how much batching group commit actually gets.
	GroupCommitBatchHist [6]int64
	// TxnsDiscardedOnReplay counts transactions recovery threw away in
	// full for lacking a complete, CRC-valid set of commit parts.
	TxnsDiscardedOnReplay int64

	// Scanning and reference management.
	Scans            int64
	RefsSelected     int64
	RefsDemoted      int64
	AssocFormed      int64
	AssocBroken      int64
	FirstLoadPairs   int64 // similarity found at first load via VM addressing
	ScanCandidates   int64 // blocks examined by scans
	ScanDeltaRejects int64 // candidate pairs rejected by the size threshold

	// Evictions.
	EvictVBlocks   int64
	EvictDataRAM   int64
	EvictDeltaRAM  int64
	WritebacksHome int64 // reconstructed blocks written back to HDD home

	// BackgroundHDDTime is HDD time spent on flush/cleaning, performed
	// off the request path.
	BackgroundHDDTime sim.Duration
	// BackgroundSSDTime is SSD time spent installing references.
	BackgroundSSDTime sim.Duration

	// Fault handling and self-healing (see resilience.go).
	TransientRetries int64 // transient device errors absorbed by retry
	RetryBackoffTime sim.Duration
	SSDReadFaults    int64 // SSD reads that failed after retries
	SSDWriteFaults   int64 // SSD writes that failed after retries
	HDDReadFaults    int64 // HDD reads that failed after retries
	HDDWriteFaults   int64 // HDD writes that failed after retries
	SlotScrubs       int64 // damaged reference slots scrub attempts
	SlotScrubRepairs int64 // slots rebuilt from a redundant copy
	ScrubDataLoss    int64 // blocks orphaned by an unrepairable slot
	SlotsRetired     int64 // SSD slots retired after program failures
	BadLogBlocks     int64 // HDD log blocks retired after write failures
	TornLogBlocks    int64 // corrupt/torn log blocks skipped by recovery
	DroppedLogRecs   int64 // log records dropped over unreadable slots
	DegradeEvents    int64 // transitions into HDD-only degraded mode
	DegradedDataLoss int64 // blocks whose newest content died with the SSD
	DegradedOps      int64 // requests served in HDD-only degraded mode

	// Fail-slow handling: per-read deadlines, hedged reads against the
	// HDD home backup, and detector-driven SSD quarantine (see
	// resilience.go and slots.go).
	DeadlineExceeded int64        // foreground slot reads over the hedge deadline
	HedgedReads      int64        // hedge reads issued to the HDD home backup
	HedgeWins        int64        // hedges that beat the slow SSD read
	HedgeCancels     int64        // hedges the SSD still beat (hedge discarded)
	HedgeSavedTime   sim.Duration // request latency removed by winning hedges
	DeadlineGiveUps  int64        // retry loops abandoned at the op deadline
	QuarantineEvents int64        // transitions into SSD quarantine
	ReadmitEvents    int64        // quarantine lifts (device re-admitted)
	QuarantinedOps   int64        // requests served while the SSD was quarantined
	QuarantineSkips  int64        // SSD reads bypassed outright during quarantine

	// End-to-end integrity: content checksums, scrubbing, verified
	// repair (see integrity.go and scrub.go, DESIGN.md §14).
	CorruptionsDetected int64 // checksum mismatches caught before reaching the host
	CorruptionsRepaired int64 // detected corruptions healed from a verifying copy
	UnrepairableBlocks  int64 // detected corruptions with no verifying copy (poisoned/dropped)
	ScrubPasses         int64 // completed full sweeps of slots + tracked home blocks
	ScrubSlotChecks     int64 // SSD reference slots verified by the scrubber
	ScrubHomeChecks     int64 // HDD home blocks verified by the scrubber
}

// Accumulate adds every counter of o into s, field by field. The walk
// is reflective so a counter added to Stats (or to an embedded struct
// or histogram array) is aggregated without touching any call site —
// the sharded controller and the element array both sum per-instance
// stats through here. Only integer counters (int64, sim.Duration),
// arrays of them, and nested structs of the same are legal; any other
// field kind panics, which the aggregation tests turn into a compile-
// time-like guard for new fields.
func (s *Stats) Accumulate(o *Stats) {
	accumulate(reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem())
}

func accumulate(dst, src reflect.Value) {
	switch dst.Kind() {
	case reflect.Int64:
		dst.SetInt(dst.Int() + src.Int())
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			accumulate(dst.Index(i), src.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			accumulate(dst.Field(i), src.Field(i))
		}
	default:
		panic("core: Stats.Accumulate: unsupported field kind " + dst.Kind().String())
	}
}

// KindCounts is a snapshot of the virtual-block population by kind,
// matching the paper's "1% reference / 85% associate / 14% independent"
// observation for SysBench (§5.1).
type KindCounts struct {
	Reference   int
	Associate   int
	Independent int
}

// Total returns the tracked block count.
func (k KindCounts) Total() int { return k.Reference + k.Associate + k.Independent }

// Fractions returns the population fractions (0 when empty).
func (k KindCounts) Fractions() (ref, assoc, indep float64) {
	t := k.Total()
	if t == 0 {
		return 0, 0, 0
	}
	return float64(k.Reference) / float64(t), float64(k.Associate) / float64(t), float64(k.Independent) / float64(t)
}

// NoteCommitWrite charges the device time of one successful
// commit-record write: commit writes happen off the request path, so
// the time lands in the background account as well as the journal's
// own meter. journalWrite calls this before any successful return
// (harness.TestLatencyConservation holds it to that).
func (s *Stats) NoteCommitWrite(d sim.Duration) {
	s.BackgroundHDDTime += d
	s.CommitWriteTime += d
}

// NoteCommit records one durable journal transaction of n payload
// bytes (packed record bytes across all its parts).
func (s *Stats) NoteCommit(n int) {
	s.TxnsCommitted++
	s.GroupCommitBytes += int64(n)
	bucket := 0
	for limit := 4 << 10; bucket < len(s.GroupCommitBatchHist)-1 && n > limit; bucket++ {
		limit <<= 2
	}
	s.GroupCommitBatchHist[bucket]++
}

// NoteDelta records an accepted delta of n bytes.
func (s *Stats) NoteDelta(n int) {
	s.DeltaCount++
	s.DeltaBytesStored += int64(n)
	bucket := 0
	for limit := 64; bucket < len(s.DeltaSizeHist)-1 && n > limit; bucket++ {
		limit <<= 1
	}
	s.DeltaSizeHist[bucket]++
}

// AvgDeltaSize returns the mean accepted delta size in bytes.
func (s *Stats) AvgDeltaSize() float64 {
	if s.DeltaCount == 0 {
		return 0
	}
	return float64(s.DeltaBytesStored) / float64(s.DeltaCount)
}
