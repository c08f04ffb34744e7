package core

import (
	"bytes"
	"fmt"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/cpumodel"
	"icash/internal/sim"
)

// newShardedRig builds n identically-sized shards over in-memory
// devices, all under one shared clock, composed by NewSharded.
func newShardedRig(t testing.TB, n int, cfg Config) (*ShardedController, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	cpu := cpumodel.NewAccountant()
	shards := make([]*Controller, n)
	for i := range shards {
		ssd := blockdev.NewMemDevice(cfg.SSDBlocks, 10*sim.Microsecond)
		hdd := blockdev.NewMemDevice(cfg.VirtualBlocks+cfg.LogBlocks, 100*sim.Microsecond)
		c, err := New(cfg, ssd, hdd, clock, cpu)
		if err != nil {
			t.Fatalf("New shard %d: %v", i, err)
		}
		shards[i] = c
	}
	sc, err := NewSharded(shards)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return sc, clock
}

func shardConfig() Config {
	cfg := NewDefaultConfig(1024, 128, 64<<10, 256<<10)
	cfg.ScanPeriod = 100
	cfg.ScanWindow = 400
	cfg.LogBlocks = 64
	cfg.FlushPeriodOps = 128
	cfg.FlushDirtyBytes = 32 << 10
	return cfg
}

func TestShardedRouting(t *testing.T) {
	sc, _ := newShardedRig(t, 4, shardConfig())
	per := sc.ShardBlocks()
	if per != 1024 {
		t.Fatalf("ShardBlocks = %d, want 1024", per)
	}
	if sc.Blocks() != 4*per {
		t.Fatalf("Blocks = %d, want %d", sc.Blocks(), 4*per)
	}
	for _, tc := range []struct {
		lba   int64
		shard int
		local int64
	}{
		{0, 0, 0}, {per - 1, 0, per - 1}, {per, 1, 0},
		{2*per + 7, 2, 7}, {4*per - 1, 3, per - 1},
	} {
		si, local := sc.Route(tc.lba)
		if si != tc.shard || local != tc.local {
			t.Errorf("Route(%d) = (%d, %d), want (%d, %d)", tc.lba, si, local, tc.shard, tc.local)
		}
	}
	buf := make([]byte, blockdev.BlockSize)
	if _, err := sc.ReadBlock(4*per, buf); err == nil {
		t.Error("ReadBlock past capacity did not fail")
	}
	if _, err := sc.WriteBlock(-1, buf); err == nil {
		t.Error("WriteBlock at negative lba did not fail")
	}
}

// TestShardedReadYourWrites drives a content-local workload over shard
// counts 1/2/4 and checks every read against a shadow model: routing
// must never mix ranges, and each shard must behave as a full
// controller over its slice.
func TestShardedReadYourWrites(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			cfg := shardConfig()
			sc, clock := newShardedRig(t, n, cfg)
			total := sc.Blocks()
			shadow := make(map[int64][]byte)
			r := sim.NewRand(42)
			buf := make([]byte, blockdev.BlockSize)

			for op := 0; op < 4000; op++ {
				lba := int64(r.Intn(int(total)))
				if r.Float64() < 0.6 {
					content := genContent(r, int(lba%7), 0.02)
					if _, err := sc.WriteBlock(lba, content); err != nil {
						t.Fatalf("write lba %d: %v", lba, err)
					}
					shadow[lba] = content
				} else if want, ok := shadow[lba]; ok {
					if _, err := sc.ReadBlock(lba, buf); err != nil {
						t.Fatalf("read lba %d: %v", lba, err)
					}
					if !bytes.Equal(buf, want) {
						t.Fatalf("read lba %d: content mismatch", lba)
					}
				}
				clock.Advance(20 * sim.Microsecond)
			}
			if err := sc.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			if err := sc.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			// Re-read everything after the flush.
			for lba, want := range shadow {
				if _, err := sc.ReadBlock(lba, buf); err != nil {
					t.Fatalf("post-flush read lba %d: %v", lba, err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("post-flush read lba %d: content mismatch", lba)
				}
			}
		})
	}
}

// TestShardedAggregation checks that the composed accessors are exact
// sums of the per-shard state.
func TestShardedAggregation(t *testing.T) {
	sc, clock := newShardedRig(t, 4, shardConfig())
	r := sim.NewRand(7)
	for op := 0; op < 1000; op++ {
		lba := int64(r.Intn(int(sc.Blocks())))
		content := genContent(r, int(lba%5), 0.02)
		if _, err := sc.WriteBlock(lba, content); err != nil {
			t.Fatalf("write: %v", err)
		}
		clock.Advance(20 * sim.Microsecond)
	}
	if err := sc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	agg := sc.Stats()
	var wantWrites, wantTxns, wantBytes int64
	var wantKinds KindCounts
	var wantDelta int64
	for i := 0; i < sc.NumShards(); i++ {
		st := sc.Shard(i).Stats
		wantWrites += st.Writes
		wantTxns += st.TxnsCommitted
		wantBytes += st.GroupCommitBytes
		k := sc.Shard(i).KindCounts()
		wantKinds.Reference += k.Reference
		wantKinds.Associate += k.Associate
		wantKinds.Independent += k.Independent
		wantDelta += sc.Shard(i).DeltaRAMUsed()
	}
	if agg.Writes != wantWrites || agg.Writes != 1000 {
		t.Errorf("aggregate Writes = %d (per-shard sum %d), want 1000", agg.Writes, wantWrites)
	}
	if agg.TxnsCommitted != wantTxns {
		t.Errorf("aggregate TxnsCommitted = %d, want %d", agg.TxnsCommitted, wantTxns)
	}
	if wantTxns == 0 {
		t.Error("no journal transactions committed across shards; flush should commit")
	}
	if agg.GroupCommitBytes != wantBytes {
		t.Errorf("aggregate GroupCommitBytes = %d, want %d", agg.GroupCommitBytes, wantBytes)
	}
	if got := sc.KindCounts(); got != wantKinds {
		t.Errorf("aggregate KindCounts = %+v, want %+v", got, wantKinds)
	}
	if got := sc.DeltaRAMUsed(); got != wantDelta {
		t.Errorf("aggregate DeltaRAMUsed = %d, want %d", got, wantDelta)
	}

	sc.ResetStats()
	if st := sc.Stats(); st.Writes != 0 || st.TxnsCommitted != 0 {
		t.Errorf("ResetStats left counters: %+v", st)
	}
}

// TestStatsAccumulate exercises the reflective walker over scalar
// counters, durations, histogram arrays and the embedded device stats.
func TestStatsAccumulate(t *testing.T) {
	var a, b Stats
	a.Reads = 3
	a.ReadTime = 5 * sim.Millisecond
	a.WriteDelta = 7
	a.DeltaSizeHist = [6]int64{1, 2, 3, 4, 5, 6}
	a.CommitWriteTime = 11 * sim.Microsecond
	b.Reads = 10
	b.ReadTime = 1 * sim.Millisecond
	b.WriteDelta = 1
	b.DeltaSizeHist = [6]int64{6, 5, 4, 3, 2, 1}
	b.CommitWriteTime = 9 * sim.Microsecond

	a.Accumulate(&b)
	if a.Reads != 13 || a.ReadTime != 6*sim.Millisecond || a.WriteDelta != 8 {
		t.Errorf("scalar accumulate wrong: %+v", a)
	}
	for i := range a.DeltaSizeHist {
		if a.DeltaSizeHist[i] != 7 {
			t.Errorf("DeltaSizeHist[%d] = %d, want 7", i, a.DeltaSizeHist[i])
		}
	}
	if a.CommitWriteTime != 20*sim.Microsecond {
		t.Errorf("CommitWriteTime = %v, want 20µs", a.CommitWriteTime)
	}
	if b.Reads != 10 {
		t.Errorf("Accumulate mutated its source: %+v", b)
	}
}
