package core

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/sim"
)

// fuzzLogBlock builds a valid CRC'd commit-record part for seeding.
func fuzzLogBlock(hdr blockHeader, entries []logEntry) []byte {
	buf := make([]byte, blockdev.BlockSize)
	encodeLogBlock(buf, hdr, entries)
	return buf
}

// oneTxn is the framing of a whole single-part transaction.
var fuzzHdr = blockHeader{txn: 1, epoch: 1, part: 0, total: 1, flags: blockFlagCommit}

// logBlockSeeds are the single-block shapes FuzzLogReplay and
// FuzzRecover start from.
func logBlockSeeds() [][]byte {
	valid := fuzzLogBlock(fuzzHdr, []logEntry{
		{kind: entryDelta, flags: 1, lba: 42, seq: 7, slot: 3, delta: []byte{1, 2, 3, 4, 5}},
		{kind: entryPointer, lba: 99, seq: 8, slot: 12},
		{kind: entryTombstone, lba: 7, seq: 9},
	})
	torn := append([]byte(nil), valid...)
	torn[2048] ^= 0xFF // flipped bit deep in the payload: CRC must catch it
	return [][]byte{
		make([]byte, blockdev.BlockSize), // never-written block: no magic
		fuzzLogBlock(fuzzHdr, nil),       // valid, empty
		valid,
		torn,
		valid[:100], // truncated write: decoder sees it zero-padded
	}
}

// FuzzLogReplay replays arbitrary bytes through the CRC'd journal-block
// decoder, the path crash recovery walks over a disk that may hold torn
// writes, stale garbage, or bit rot. Decoding must never panic; blocks
// it accepts must survive an encode/decode round trip unchanged.
func FuzzLogReplay(f *testing.F) {
	for _, seed := range logBlockSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The log always hands the decoder whole blocks: pad or clip the
		// input to exactly one block, as a torn or short write would be
		// read back from a zero-filled disk.
		buf := make([]byte, blockdev.BlockSize)
		copy(buf, data)

		hdr, entries, err := decodeLogBlock(buf)
		if err != nil {
			return // rejected: corrupt blocks are allowed to fail, not panic
		}
		if hdr.total == 0 {
			return // no magic: never-written block
		}
		// Accepted blocks round-trip: re-encoding the decoded header and
		// entries and decoding again must reproduce them exactly.
		re := make([]byte, blockdev.BlockSize)
		encodeLogBlock(re, hdr, entries)
		rehdr, again, err := decodeLogBlock(re)
		if err != nil {
			t.Fatalf("re-encoded block failed to decode: %v", err)
		}
		if rehdr != hdr {
			t.Fatalf("round trip header %+v, want %+v", rehdr, hdr)
		}
		if len(entries) != len(again) {
			t.Fatalf("round trip entry count %d, want %d", len(again), len(entries))
		}
		if len(entries) > 0 && !reflect.DeepEqual(entries, again) {
			t.Fatalf("round trip entries differ:\n got %+v\nwant %+v", again, entries)
		}
	})
}

// fuzzJournal concatenates whole blocks into one multi-block region.
func fuzzJournal(blocks ...[]byte) []byte {
	var out []byte
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// journalSeeds are the multi-block regions FuzzJournalReplay and
// FuzzRecover start from.
func journalSeeds() (seeds [][]byte) {
	entryA := []logEntry{{kind: entryDelta, lba: 10, seq: 1, slot: 2, delta: []byte{1, 2}}}
	entryB := []logEntry{{kind: entryTombstone, lba: 11, seq: 2}}
	entryC := []logEntry{{kind: entryPointer, lba: 12, seq: 3, slot: 4}}

	// A complete two-part transaction followed by a complete single-part one.
	seeds = append(seeds, fuzzJournal(
		fuzzLogBlock(blockHeader{txn: 5, epoch: 2, part: 0, total: 2}, entryA),
		fuzzLogBlock(blockHeader{txn: 5, epoch: 2, part: 1, total: 2, flags: blockFlagCommit}, entryB),
		fuzzLogBlock(blockHeader{txn: 6, epoch: 2, part: 0, total: 1, flags: blockFlagCommit}, entryC),
	))
	// Truncated commit: the marker part of txn 5 never made it to disk.
	seeds = append(seeds, fuzzJournal(
		fuzzLogBlock(blockHeader{txn: 5, epoch: 2, part: 0, total: 3}, entryA),
		fuzzLogBlock(blockHeader{txn: 5, epoch: 2, part: 1, total: 3}, entryB),
		make([]byte, blockdev.BlockSize),
	))
	// Bit-flipped CRC inside a part: the transaction must void wholly.
	flipped := fuzzLogBlock(blockHeader{txn: 7, epoch: 2, part: 0, total: 2}, entryA)
	flipped[100] ^= 0x40
	seeds = append(seeds, fuzzJournal(
		flipped,
		fuzzLogBlock(blockHeader{txn: 7, epoch: 2, part: 1, total: 2, flags: blockFlagCommit}, entryB),
	))
	// Duplicate txn id: two generations framed the same id and part.
	seeds = append(seeds, fuzzJournal(
		fuzzLogBlock(blockHeader{txn: 8, epoch: 1, part: 0, total: 1, flags: blockFlagCommit}, entryA),
		fuzzLogBlock(blockHeader{txn: 8, epoch: 1, part: 0, total: 1, flags: blockFlagCommit}, entryB),
	))
	// Stale-epoch record: an old incarnation's part under a reused id.
	seeds = append(seeds, fuzzJournal(
		fuzzLogBlock(blockHeader{txn: 9, epoch: 1, part: 0, total: 2}, entryA),
		fuzzLogBlock(blockHeader{txn: 9, epoch: 4, part: 1, total: 2, flags: blockFlagCommit}, entryB),
	))
	return seeds
}

// FuzzJournalReplay drives arbitrary multi-block regions through the
// transaction assembly that crash recovery and the durability audit
// share. The seeds are the hostile shapes a crashed or scribbled disk
// produces: a transaction truncated before its commit marker, a
// bit-flipped CRC, the same transaction id framing two different
// batches (duplicate parts), and a stale-epoch leftover adopted into a
// newer transaction's id. Assembly must never panic, and a transaction
// it reports complete must actually be whole and consistent —
// anything less must count as discarded, never as partially applied.
func FuzzJournalReplay(f *testing.F) {
	for _, seed := range journalSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Clip to whole blocks, at most a small region; a torn tail
		// block arrives zero-padded like a real partial write.
		const maxBlocks = 8
		asm := newJournalAsm()
		buf := make([]byte, blockdev.BlockSize)
		for b := int64(0); b < maxBlocks; b++ {
			lo := int(b) * blockdev.BlockSize
			if lo >= len(data) {
				break
			}
			for i := range buf {
				buf[i] = 0
			}
			copy(buf, data[lo:])
			asm.addBlock(b, buf)
		}
		for id, txn := range asm.txns {
			if !txn.complete() {
				continue
			}
			// A complete transaction must be internally whole: every
			// part present exactly once, consistent framing, commit
			// marker on the final part, every entry's seq within the
			// assembly's max.
			if len(txn.seen) != txn.total || txn.bad || !txn.commit {
				t.Fatalf("txn %d reported complete but seen=%d total=%d bad=%v commit=%v",
					id, len(txn.seen), txn.total, txn.bad, txn.commit)
			}
			for part := 0; part < txn.total; part++ {
				b, ok := txn.seen[uint16(part)]
				if !ok {
					t.Fatalf("complete txn %d missing part %d", id, part)
				}
				sb, ok := asm.blocks[b]
				if !ok {
					t.Fatalf("complete txn %d part %d points at undecoded block %d", id, part, b)
				}
				if sb.hdr.txn != id || sb.hdr.epoch != txn.epoch || int(sb.hdr.total) != txn.total {
					t.Fatalf("complete txn %d part %d has inconsistent header %+v", id, part, sb.hdr)
				}
				if sb.hdr.commit() != (part == txn.total-1) {
					t.Fatalf("txn %d part %d: commit marker misplaced", id, part)
				}
				for i := range sb.entries {
					if sb.entries[i].seq > asm.maxSeq {
						t.Fatalf("entry seq %d above assembly max %d", sb.entries[i].seq, asm.maxSeq)
					}
				}
			}
		}
	})
}

// recoverCfg is the array FuzzRecover and the out-of-range regression
// test recover: small enough that a fuzz iteration is cheap, with the
// seeds' LBAs and slots inside it.
func recoverCfg() Config {
	cfg := NewDefaultConfig(128, 16, 64<<10, 256<<10)
	cfg.LogBlocks = 8
	return cfg
}

// recoverRegion lays region (whole blocks, the tail zero-padded like a
// torn write) into the log region of a fresh device pair and runs crash
// recovery over it. With seal set, every block carrying the journal
// magic gets its checksum recomputed first, so a mutated record reaches
// replay instead of dying at the CRC.
func recoverRegion(tb testing.TB, cfg Config, region []byte, seal bool) (*Controller, error) {
	tb.Helper()
	ssd := blockdev.NewMemDevice(cfg.SSDBlocks, 10*sim.Microsecond)
	hdd := blockdev.NewMemDevice(cfg.VirtualBlocks+cfg.LogBlocks, 100*sim.Microsecond)
	buf := make([]byte, blockdev.BlockSize)
	for b := int64(0); b < cfg.LogBlocks && int(b)*blockdev.BlockSize < len(region); b++ {
		clear(buf)
		copy(buf, region[int(b)*blockdev.BlockSize:])
		if seal && string(buf[0:4]) == logMagic {
			binary.LittleEndian.PutUint32(buf[6:10], logBlockCRC(buf))
		}
		if _, err := hdd.WriteBlock(cfg.VirtualBlocks+b, buf); err != nil {
			tb.Fatal(err)
		}
	}
	clock := sim.NewClock()
	return Recover(cfg, ssd, hdd, clock, cpumodel.NewAccountant(clock))
}

// FuzzRecover drives arbitrary log regions through the whole of crash
// recovery, not only its decoder and assembler: transaction
// registration, newest-record selection, slot and vblock
// reconstruction, the frontier search. Recovery may reject a region; it
// must never panic, and a controller it does return must be
// self-consistent and agree with the media it was rebuilt from.
func FuzzRecover(f *testing.F) {
	for _, seed := range append(logBlockSeeds(), journalSeeds()...) {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	for _, lba := range outOfRangeLBAs(recoverCfg()) {
		f.Add(fuzzLogBlock(fuzzHdr, []logEntry{{kind: entryPointer, lba: lba, seq: 1, slot: 1}}), false)
	}
	f.Add(twoWriteThroughsOneSlot(), false)
	f.Fuzz(func(t *testing.T, region []byte, seal bool) {
		c, err := recoverRegion(t, recoverCfg(), region, seal)
		if err != nil {
			return // rejected loudly: allowed
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("recovered controller inconsistent: %v", err)
		}
		incomplete, err := c.AuditJournal()
		if err != nil {
			t.Fatalf("recovered controller disagrees with its journal: %v", err)
		}
		if int64(incomplete) != c.Stats.TxnsDiscardedOnReplay {
			t.Fatalf("audit finds %d incomplete transactions, replay discarded %d",
				incomplete, c.Stats.TxnsDiscardedOnReplay)
		}
	})
}

// outOfRangeLBAs are record addresses no virtual disk of cfg's size
// has: one past the end, and one with the top bit set (negative).
func outOfRangeLBAs(cfg Config) []int64 {
	return []int64{cfg.VirtualBlocks, math.MinInt64 + 5}
}

// TestRecoverRejectsOutOfRangeLBA: a CRC-valid, complete transaction
// whose record names an LBA outside the virtual disk must fail recovery
// loudly, like a record naming a slot outside the SSD does. Before the
// check, replay installed a ghost block for it that no host write could
// ever supersede, pinning its transaction's log blocks for good.
func TestRecoverRejectsOutOfRangeLBA(t *testing.T) {
	cfg := recoverCfg()
	for _, lba := range outOfRangeLBAs(cfg) {
		for _, e := range []logEntry{
			{kind: entryDelta, lba: lba, seq: 1, slot: 1, delta: []byte{1, 2}},
			{kind: entryPointer, lba: lba, seq: 1, slot: 1},
			{kind: entryTombstone, lba: lba, seq: 1},
		} {
			c, err := recoverRegion(t, cfg, fuzzLogBlock(fuzzHdr, []logEntry{e}), false)
			if err == nil || c != nil {
				t.Fatalf("kind %d lba %d: Recover returned a controller (err %v), want an error", e.kind, lba, err)
			}
			if !strings.Contains(err.Error(), "outside the virtual disk") {
				t.Fatalf("kind %d lba %d: Recover failed with %v, want the out-of-range rejection", e.kind, lba, err)
			}
		}
	}
}

// twoWriteThroughsOneSlot is a complete transaction pointing two LBAs at
// one SSD slot as write-throughs, which panicked replay's LRU insert.
func twoWriteThroughsOneSlot() []byte {
	return fuzzLogBlock(fuzzHdr, []logEntry{
		{kind: entryPointer, lba: 3, seq: 1, slot: 1},
		{kind: entryPointer, lba: 4, seq: 2, slot: 1},
	})
}

// TestRecoverRejectsSharedWriteThroughSlot pins that seed: an error,
// not a panic.
func TestRecoverRejectsSharedWriteThroughSlot(t *testing.T) {
	if c, err := recoverRegion(t, recoverCfg(), twoWriteThroughsOneSlot(), false); err == nil || c != nil {
		t.Fatalf("Recover returned a controller (err %v), want an error", err)
	}
}
