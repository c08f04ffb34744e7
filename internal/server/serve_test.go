package server

import (
	"hash/fnv"
	"sync"
	"testing"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/harness"
	"icash/internal/metrics"
	"icash/internal/workload"
)

// fingerprint hashes the final content of every virtual block the
// controller serves — the data-set identity of a finished run.
func fingerprint(t *testing.T, ctrl *core.ShardedController) uint64 {
	t.Helper()
	h := fnv.New64a()
	buf := make([]byte, blockdev.BlockSize)
	for lba := int64(0); lba < ctrl.Blocks(); lba++ {
		if _, err := ctrl.ReadBlock(lba, buf); err != nil {
			t.Fatalf("fingerprint read lba %d: %v", lba, err)
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// resilienceString renders the resilience counters for equality checks.
func resilienceString(st *core.Stats) string {
	return metrics.FormatCounters(metrics.ResilienceCounters(st), "", false)
}

// TestServedEqualsInproc is the regression the front-end must never
// break: a profile served through framed sessions ends with the exact
// same data set as the in-process harness, with identical resilience
// counters, and the served run itself is byte-identical whether one or
// many runs share the process (run under -race in CI).
func TestServedEqualsInproc(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run regression is not a -short test")
	}
	p := workload.TPCC5VM()
	opts := workload.Options{Scale: 1.0 / 2048, MaxOps: 1500, Seed: 11, QueueDepth: 4, StreamPerVM: true}

	// The direct run: the same workload through the in-process
	// concurrent harness.
	br, err := harness.RunBenchmark(p, opts, []harness.Kind{harness.ICASH})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	directFP := fingerprint(t, br.SysSharded)
	directRes := resilienceString(br.Results[harness.ICASH].ICASHStats)

	type servedOut struct {
		fp  uint64
		res string
		err error
	}

	for _, par := range []int{1, 4, 8} {
		opts.Workers = par
		outs := make([]servedOut, par)
		var wg sync.WaitGroup
		wg.Add(par)
		for i := 0; i < par; i++ {
			go func(i int) {
				defer wg.Done()
				sr, err := RunServed(p, opts)
				if err != nil {
					outs[i] = servedOut{err: err}
					return
				}
				var fp uint64
				func() {
					// fingerprint fatals through t; recover its value via a
					// plain error path instead inside goroutines.
					h := fnv.New64a()
					buf := make([]byte, blockdev.BlockSize)
					for lba := int64(0); lba < sr.Sys.Sharded.Blocks(); lba++ {
						if _, err := sr.Sys.Sharded.ReadBlock(lba, buf); err != nil {
							outs[i] = servedOut{err: err}
							return
						}
						h.Write(buf)
					}
					fp = h.Sum64()
				}()
				if outs[i].err != nil {
					return
				}
				outs[i] = servedOut{fp: fp, res: resilienceString(sr.Stats)}
			}(i)
		}
		wg.Wait()
		for i, out := range outs {
			if out.err != nil {
				t.Fatalf("parallel %d, run %d: %v", par, i, out.err)
			}
			if out.fp != directFP {
				t.Fatalf("parallel %d, run %d: served fingerprint %#x != direct %#x — the wire changed the data",
					par, i, out.fp, directFP)
			}
			if out.res != directRes {
				t.Fatalf("parallel %d, run %d: resilience counters diverge:\nserved: %q\ndirect: %q",
					par, i, out.res, directRes)
			}
		}
	}
}

// TestServedRunAccounting covers the run-level wiring in one small
// served run: graceful drain (empty journal, invariants hold), closed
// sessions, populated per-session stats, stations, and latency
// histograms — everything icash-inspect renders.
func TestServedRunAccounting(t *testing.T) {
	p := workload.TPCC5VM()
	opts := workload.Options{Scale: 1.0 / 2048, MaxOps: 800, Seed: 7, StreamPerVM: true, QueueDepth: 4}
	sr, err := RunServed(p, opts)
	if err != nil {
		t.Fatalf("RunServed: %v", err)
	}

	// Graceful shutdown drained every session through the journal: no
	// transaction may be left incomplete on the media.
	for i, sh := range sr.Sys.Sharded.Shards() {
		if n, err := sh.AuditJournal(); err != nil || n != 0 {
			t.Fatalf("shard %d journal after drain: %d incomplete, err %v", i, n, err)
		}
	}
	if err := sr.Sys.Sharded.CheckInvariants(); err != nil {
		t.Fatalf("invariants after served run: %v", err)
	}

	if len(sr.Sessions) != 5 {
		t.Fatalf("%d sessions, want 5 (one per VM)", len(sr.Sessions))
	}
	var reqs, reads, writes, flushes int64
	for _, s := range sr.Sessions {
		if s.VM < 0 || s.VM > 4 {
			t.Fatalf("session %s pinned to vm %d", s.Name, s.VM)
		}
		if s.Stats.Requests == 0 || s.Stats.BytesIn == 0 || s.Stats.BytesOut == 0 {
			t.Fatalf("session %s has empty accounting: %+v", s.Name, s.Stats)
		}
		if s.Station.Ops == 0 {
			t.Fatalf("session %s uplink station saw no ops", s.Name)
		}
		reqs += s.Stats.Requests
		reads += s.Stats.Reads
		writes += s.Stats.Writes
		flushes += s.Stats.Flushes
	}
	// Every session's last token carries an OpClose, whose flush is the
	// drain — so flushes count the graceful shutdowns.
	if flushes != int64(len(sr.Sessions)) {
		t.Fatalf("%d flushes, want exactly one close-drain per session", flushes)
	}
	if reqs != sr.Ops+int64(len(sr.Sessions)) {
		t.Fatalf("sessions saw %d requests, run counted %d ops + %d closes", reqs, sr.Ops, len(sr.Sessions))
	}
	if reads != sr.Reads || writes != sr.Writes {
		t.Fatalf("session op mix (%d r / %d w) != run (%d r / %d w)", reads, writes, sr.Reads, sr.Writes)
	}
	if sr.ReadHist.Count() != sr.Reads || sr.WriteHist.Count() != sr.Writes {
		t.Fatalf("latency histograms (%d r / %d w) do not cover the ops (%d r / %d w)",
			sr.ReadHist.Count(), sr.WriteHist.Count(), sr.Reads, sr.Writes)
	}
	if sr.Elapsed <= 0 || sr.ReqPerSec <= 0 {
		t.Fatalf("elapsed %v, %f req/s — timeline did not advance", sr.Elapsed, sr.ReqPerSec)
	}
	if sr.Stats == nil || sr.Stats.TxnsCommitted == 0 {
		t.Fatal("controller stats missing or no journal transactions committed")
	}
	if sr.Report() == "" {
		t.Fatal("empty report")
	}
}

// TestServedDeterminism runs the same served configuration twice in the
// same process and demands identical timelines, histograms, and
// accounting — the determinism claim at its strictest.
func TestServedDeterminism(t *testing.T) {
	p := workload.SysBench()
	opts := workload.Options{Scale: 1.0 / 1024, MaxOps: 600, Seed: 3, QueueDepth: 4}

	a, err := RunServed(p, opts)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := RunServed(p, opts)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Report() != b.Report() {
		t.Fatalf("two identical served runs rendered different reports:\n--- a\n%s\n--- b\n%s", a.Report(), b.Report())
	}
	if a.Elapsed != b.Elapsed || a.Ops != b.Ops {
		t.Fatalf("run identity diverged: %v/%d vs %v/%d", a.Elapsed, a.Ops, b.Elapsed, b.Ops)
	}
}

// TestServedWindowFromQueueDepth pins where the served window comes
// from: opts.QueueDepth, 8 when it is unset, MaxWindow when it is larger.
func TestServedWindowFromQueueDepth(t *testing.T) {
	p := workload.SysBench()
	for _, tc := range []struct{ qd, want int }{
		{0, 8},
		{4, 4},
		{MaxWindow + 1, MaxWindow},
	} {
		opts := workload.Options{Scale: 1.0 / 2048, MaxOps: 200, Seed: 5, QueueDepth: tc.qd}
		sr, err := RunServed(p, opts)
		if err != nil {
			t.Fatalf("QueueDepth %d: %v", tc.qd, err)
		}
		if sr.Window != tc.want {
			t.Fatalf("QueueDepth %d served at window %d, want %d", tc.qd, sr.Window, tc.want)
		}
	}
}
