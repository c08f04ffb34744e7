package workload

import (
	"fmt"
	"sync/atomic"

	"icash/internal/blockdev"
	"icash/internal/core"
	"icash/internal/sim"
)

// Request is one block-level I/O in the generated stream.
type Request struct {
	// Write distinguishes writes from reads.
	Write bool
	// LBA is the starting block address.
	LBA int64
	// Blocks is the request length in blocks (>= 1).
	Blocks int
}

// Options scales a profile to simulation size.
type Options struct {
	// Scale multiplies the data-set size and request counts (e.g. 1/64
	// of the paper's sizes). Zero picks DefaultScale.
	Scale float64
	// MaxOps caps the generated request count after scaling (0 = no cap).
	MaxOps int
	// Seed makes the stream reproducible.
	Seed uint64
	// QueueDepth is the number of outstanding requests each stream keeps
	// in flight (closed-loop issue). 0 or 1 is one request at a time.
	QueueDepth int
	// StreamPerVM splits a multi-VM profile into one independent
	// generator per VM, interleaved by virtual arrival time, instead of
	// a single serialized stream (Fig 15/16 as genuinely concurrent
	// runs). Ignored for single-VM profiles.
	StreamPerVM bool
	// TuneICASH, when run through the experiment harness, overrides
	// I-CASH controller parameters (ablation studies). Ignored by the
	// generator itself.
	TuneICASH func(*core.Config)
	// Shards, when run through the experiment harness, partitions the
	// I-CASH controller into that many LBA-range shards (0 or 1 = one
	// shard). Ignored by the generator itself.
	Shards int
	// Workers, when run through the experiment harness, is the budget of
	// goroutines its fans may keep busy (<= 0 = GOMAXPROCS): experiment
	// points share it, and one point spends its share on populate units,
	// shard groups and stream-stage producers. Output is identical at
	// every count. Ignored by the generator itself.
	Workers int
}

// DefaultScale keeps the largest benchmark around a hundred thousand
// requests and data sets in the hundreds of megabytes, preserving the
// SSD:data-set ratio the paper uses.
const DefaultScale = 1.0 / 64

// Generator produces the deterministic request + content stream for one
// profile. It also serves as the content oracle for the initial data
// set (install via blockdev.Filler on every device under test).
//
// The stream methods (Next, WriteContent, CurrentContent, Reset) need
// one owning goroutine. Fill reads only the profile, the options and
// the family-base memo, so it is safe to call from another goroutine
// while the owner draws the stream: the harness's stream stage draws
// requests and write content on one core while the devices under test
// consult Fill on the other.
type Generator struct {
	p    Profile
	opts Options
	rng  *sim.Rand
	zipf *sim.Zipf

	dataBlocks  int64
	imageBlocks int64 // per-VM image size (== dataBlocks when VMs <= 1)
	numOps      int
	emitted     int

	// vmPin restricts the stream to one VM's image partition (per-VM
	// stream mode); -1 means requests roam over all VMs.
	vmPin int
	// opsOverride, when positive, replaces the scaled request count
	// (per-VM streams split the profile's total among themselves).
	opsOverride int

	// Sequential-run state.
	nextSeq   int64
	seqWrite  bool
	seqRemain int

	// version counts writes per block: the content of block b after its
	// n-th write is a deterministic function of (seed, b, n).
	version map[int64]uint32
	// freshAnchor records, per block, the most recent write version that
	// replaced the whole content (FreshWriteFrac); later versions mutate
	// from that anchor instead of the original base.
	freshAnchor map[int64]uint32

	// familyBase memoizes the base content of each family, one slot per
	// family, each set once by CAS. Base content depends only on the
	// seed and the family, so Reset keeps the memo and per-VM streams
	// share their parent's.
	familyBase []atomic.Pointer[[blockdev.BlockSize]byte]
}

// NewGenerator builds a generator for p with the given options.
func NewGenerator(p Profile, opts Options) *Generator {
	if opts.Scale <= 0 {
		opts.Scale = DefaultScale
	}
	g := &Generator{p: p, opts: opts, vmPin: -1}
	g.Reset()
	return g
}

// Profile returns the underlying benchmark profile.
func (g *Generator) Profile() Profile { return g.p }

// Options returns the scaling options the generator was built with.
func (g *Generator) Options() Options { return g.opts }

// VM returns the pinned VM index of a per-VM stream, or -1 for a
// whole-data-set generator.
func (g *Generator) VM() int { return g.vmPin }

// Streams returns the request streams a run of g issues from. Under
// Options.StreamPerVM a multi-VM profile splits into one independent
// stream per VM, sharing the content model (same seed, same families,
// same initial data set) but drawing requests only from their own image
// partition, with the profile's request budget divided among them;
// otherwise g itself is the one stream.
func (g *Generator) Streams() []*Generator {
	vms := g.p.VMs
	if !g.opts.StreamPerVM || vms <= 1 {
		return []*Generator{g}
	}
	total := g.numOps
	streams := make([]*Generator, vms)
	for i := 0; i < vms; i++ {
		share := total / vms
		if i < total%vms {
			share++
		}
		s := &Generator{p: g.p, opts: g.opts, vmPin: i, opsOverride: share, familyBase: g.familyBase}
		s.Reset()
		streams[i] = s
	}
	return streams
}

// Span returns the half-open LBA range [lo, hi) that every block of
// every request of g lies in: the pinned VM's image, or the whole data
// set. A request longer than its image starts at the image's base, so
// on a profile that issues multi-block requests the span reaches at
// least maxReqBlocks.
func (g *Generator) Span() (lo, hi int64) {
	reach := g.imageBlocks
	if g.p.AvgReadBytes > blockdev.BlockSize || g.p.AvgWriteBytes > blockdev.BlockSize {
		reach = max(reach, maxReqBlocks)
	}
	if g.vmPin < 0 {
		return 0, g.dataBlocks - g.imageBlocks + reach
	}
	lo = int64(g.vmPin) * g.imageBlocks
	return lo, lo + reach
}

// DataBlocks returns the scaled data-set size in blocks.
func (g *Generator) DataBlocks() int64 { return g.dataBlocks }

// ImageBlocks returns the per-VM image size in blocks (the whole data
// set for single-machine benchmarks).
func (g *Generator) ImageBlocks() int64 { return g.imageBlocks }

// NumOps returns the scaled request count.
func (g *Generator) NumOps() int { return g.numOps }

// Reset rewinds the stream to the beginning.
func (g *Generator) Reset() {
	p, opts := g.p, g.opts
	dataBlocks := int64(float64(p.DataBlocks()) * opts.Scale)
	if dataBlocks < 64 {
		dataBlocks = 64
	}
	vms := p.VMs
	if vms < 1 {
		vms = 1
	}
	imageBlocks := dataBlocks / int64(vms)
	if imageBlocks < 16 {
		imageBlocks = 16
	}
	dataBlocks = imageBlocks * int64(vms)

	numOps := int(float64(p.PaperOps()) * opts.Scale)
	if numOps < 1000 {
		numOps = 1000
	}
	if opts.MaxOps > 0 && numOps > opts.MaxOps {
		numOps = opts.MaxOps
	}
	if g.opsOverride > 0 {
		numOps = g.opsOverride
	}

	// A pinned per-VM stream salts the request RNG so the VMs issue
	// distinct streams; the content model (family bases, block content)
	// keys only off opts.Seed and stays shared across streams.
	rngSeed := opts.Seed ^ 0x1CA5BEEF
	if g.vmPin >= 0 {
		rngSeed ^= uint64(g.vmPin+1) * 0x9E3779B97F4A7C15
	}
	g.rng = sim.NewRand(rngSeed)
	g.dataBlocks = dataBlocks
	g.imageBlocks = imageBlocks
	g.numOps = numOps
	g.emitted = 0
	g.nextSeq = -1
	g.seqRemain = 0
	g.version = make(map[int64]uint32)
	g.freshAnchor = make(map[int64]uint32)
	if g.familyBase == nil {
		g.familyBase = make([]atomic.Pointer[[blockdev.BlockSize]byte], max(p.Families, 1))
	}
	if p.Skew > 0 {
		g.zipf = sim.NewZipf(g.rng, int(imageBlocks), p.Skew)
	} else {
		g.zipf = nil
	}
}

// maxReqBlocks is the longest request reqBlocks draws.
const maxReqBlocks = 64

// reqBlocks samples a request length around the profile's mean using a
// geometric-ish distribution clamped to [1, maxReqBlocks]; a mean of at
// most one block always draws 1.
func (g *Generator) reqBlocks(avgBytes int) int {
	mean := float64(avgBytes) / blockdev.BlockSize
	if mean <= 1 {
		return 1
	}
	// Geometric with the right mean: P(continue) = 1 - 1/mean.
	n := 1
	pCont := 1 - 1/mean
	for n < maxReqBlocks && g.rng.Float64() < pCont {
		n++
	}
	return n
}

// pickLBA chooses a request start address honouring VM partitioning,
// temporal skew and the data-set bound.
func (g *Generator) pickLBA(length int) int64 {
	var off int64
	if g.zipf != nil {
		// Zipf rank -> block offset. Ranks are scattered in 8-block
		// clusters: hot blocks are spread across the disk (no false
		// physical locality) while multi-block requests starting at a
		// hot block still touch warm neighbours.
		const cluster = 8
		rank := int64(g.zipf.Next())
		nClusters := (g.imageBlocks + cluster - 1) / cluster
		c := (rank / cluster * 2654435761) % nClusters
		off = (c*cluster + rank%cluster) % g.imageBlocks
	} else {
		off = g.rng.Int63n(g.imageBlocks)
	}
	if off+int64(length) > g.imageBlocks {
		off = g.imageBlocks - int64(length)
		if off < 0 {
			off = 0
		}
	}
	vm := int64(0)
	if g.vmPin >= 0 {
		vm = int64(g.vmPin)
	} else if g.p.VMs > 1 {
		vm = int64(g.rng.Intn(g.p.VMs))
	}
	return vm*g.imageBlocks + off
}

// seqBound is the exclusive LBA limit for sequential runs: a pinned
// stream stays inside its own VM image.
func (g *Generator) seqBound() int64 {
	if g.vmPin >= 0 {
		return int64(g.vmPin+1) * g.imageBlocks
	}
	return g.dataBlocks
}

// Next returns the next request, or ok == false at end of stream.
func (g *Generator) Next() (Request, bool) {
	if g.emitted >= g.numOps {
		return Request{}, false
	}
	g.emitted++

	isWrite := g.rng.Float64() >= g.p.ReadFraction()
	var req Request
	if g.seqRemain > 0 && g.nextSeq >= 0 {
		// Continue the sequential run.
		length := g.reqBlocks(g.avgBytes(g.seqWrite))
		if g.nextSeq+int64(length) > g.seqBound() {
			g.seqRemain = 0
			return g.randomRequest(isWrite), true
		}
		req = Request{Write: g.seqWrite, LBA: g.nextSeq, Blocks: length}
		g.nextSeq += int64(length)
		g.seqRemain--
		return req, true
	}
	if g.rng.Float64() < g.seqStartProb() {
		// Start a new sequential run of 4-32 requests.
		g.seqWrite = isWrite
		g.seqRemain = 4 + g.rng.Intn(28)
		length := g.reqBlocks(g.avgBytes(isWrite))
		lba := g.pickLBA(length)
		g.nextSeq = lba + int64(length)
		return Request{Write: isWrite, LBA: lba, Blocks: length}, true
	}
	return g.randomRequest(isWrite), true
}

// seqStartProb converts the profile's "fraction of requests that are
// sequential" into the probability of *starting* a run, accounting for
// the mean run length, so SeqFraction means what it says.
func (g *Generator) seqStartProb() float64 {
	const meanRun = 17.5 // runs are 4-32 requests, uniform
	f := g.p.SeqFraction
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return 1
	}
	return f / (meanRun * (1 - f))
}

func (g *Generator) avgBytes(write bool) int {
	if write {
		return g.p.AvgWriteBytes
	}
	return g.p.AvgReadBytes
}

func (g *Generator) randomRequest(write bool) Request {
	length := g.reqBlocks(g.avgBytes(write))
	return Request{Write: write, LBA: g.pickLBA(length), Blocks: length}
}

// ---------------------------------------------------------------------
// Content model
// ---------------------------------------------------------------------

// familyOf maps a block to its content family. Blocks of one family
// share a base pattern; VM clones share families by image offset.
func (g *Generator) familyOf(lba int64) int {
	off := lba % g.imageBlocks
	fams := g.p.Families
	if fams <= 0 {
		fams = 1
	}
	return int((uint64(off) * 0x9E3779B97F4A7C15 >> 32) % uint64(fams))
}

// base returns (memoizing) the family base content. Two goroutines
// that miss on one family at once compute the same bytes; the first
// CAS wins and both return its copy.
func (g *Generator) base(family int) []byte {
	slot := &g.familyBase[family]
	if b := slot.Load(); b != nil {
		return b[:]
	}
	b := new([blockdev.BlockSize]byte)
	var r sim.Rand
	r.Seed(g.opts.Seed*31 + uint64(family)*977 + 5)
	r.Bytes(b[:])
	if !slot.CompareAndSwap(nil, b) {
		b = slot.Load()
	}
	return b[:]
}

// Basis returns lba's family base (blockdev.Basis), or nil outside the
// data set: the shared block that lba's content is a small mutation of,
// unless the block was wholly rewritten. The block is memoized and
// never changes, so the devices under test may keep their copies of the
// data set as differences from it.
func (g *Generator) Basis(lba int64) []byte {
	if lba < 0 || lba >= g.dataBlocks {
		return nil
	}
	return g.base(g.familyOf(lba))
}

var _ blockdev.Basis = (*Generator)(nil)

// mutate overwrites frac of buf's bytes. Changes come in contiguous
// runs of 16-64 bytes, the way real updates modify fields and records
// rather than isolated bytes. Positions come from posSeed and values
// from valSeed: passing a stable posSeed across write versions models
// the fact that successive writes to a block keep rewriting the same
// hot fields — which is what keeps the paper's measured deltas small
// (5-20%% of bits) even after many writes.
func mutate(buf []byte, posSeed, valSeed uint64, frac float64) {
	if frac <= 0 {
		return
	}
	n := int(frac * float64(len(buf)))
	if n <= 0 {
		n = 1
	}
	var pr, vr sim.Rand // on the stack: two per call, several calls per block
	pr.Seed(posSeed)
	vr.Seed(valSeed)
	for n > 0 {
		run := 16 + pr.Intn(49)
		if run > n {
			run = n
		}
		pos := pr.Intn(len(buf))
		n -= run
		// A run that passes the end of buf wraps to its start: fill it
		// as contiguous spans rather than reducing every index.
		for run > 0 {
			span := buf[pos:]
			if len(span) > run {
				span = span[:run]
			}
			vr.LowBytes(span)
			run -= len(span)
			pos = 0
		}
	}
}

// isFresh reports whether the version-th write to lba replaces the
// block with entirely new content.
func (g *Generator) isFresh(lba int64, version uint32) bool {
	if g.p.FreshWriteFrac <= 0 || version == 0 {
		return false
	}
	h := (uint64(lba)*0x9E3779B97F4A7C15 + uint64(version)*0xD1B54A32D192ED03) ^ g.opts.Seed
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	return float64(h>>11)/(1<<53) < g.p.FreshWriteFrac
}

// contentAt writes the content of lba at the given write-version into
// buf. Version 0 is the initial data set. anchor is the most recent
// fresh-write version at or below version (0 = never).
func (g *Generator) contentAt(lba int64, version, anchor uint32, buf []byte) {
	off := lba % g.imageBlocks
	vm := lba / g.imageBlocks
	if anchor > 0 {
		// The block was wholly rewritten at the anchor version: new,
		// family-independent content.
		var r sim.Rand
		r.Seed(g.opts.Seed ^ uint64(lba)*6700417 ^ uint64(anchor)*7879)
		r.Bytes(buf)
	} else {
		fam := g.familyOf(lba)
		copy(buf, g.base(fam))
		// Per-block personalization: all but DupFrac of blocks differ
		// from the family base by MutFrac of bytes.
		var perBlock sim.Rand
		perBlock.Seed(g.opts.Seed ^ uint64(off)*0x9E3779B97F4A7C15)
		if perBlock.Float64() >= g.p.DupFrac {
			seed := g.opts.Seed ^ uint64(off)*7919 + 13
			mutate(buf, seed, seed, g.p.MutFrac)
		}
		// VM divergence: clone images differ slightly from image 0.
		if vm > 0 && g.p.VMDiverge > 0 {
			seed := g.opts.Seed ^ uint64(lba)*104729 + 29
			mutate(buf, seed, seed, g.p.VMDiverge)
		}
	}
	// Write history since the anchor: positions are (mostly) stable per
	// block — writes keep updating the same hot fields with new values.
	if version > anchor {
		posSeed := g.opts.Seed ^ uint64(lba)*52361 ^ uint64(anchor)*31
		valSeed := posSeed + uint64(version)*613
		mutate(buf, posSeed, valSeed, g.p.MutFrac)
		// A small drifting component so content still evolves.
		mutate(buf, valSeed, valSeed+1, g.p.MutFrac/8)
	}
}

// Fill is the initial-content oracle (blockdev.FillFunc): the data set
// as it exists before the measured run.
func (g *Generator) Fill(lba int64, buf []byte) {
	g.contentAt(lba, 0, 0, buf)
}

// WriteContent produces the content of the next write to lba and
// advances the block's version. The harness calls it once per written
// block, in stream order.
func (g *Generator) WriteContent(lba int64, buf []byte) {
	v := g.version[lba] + 1
	g.version[lba] = v
	if g.isFresh(lba, v) {
		g.freshAnchor[lba] = v
	}
	g.contentAt(lba, v, g.freshAnchor[lba], buf)
}

// CurrentContent reproduces the latest written content of lba (for
// verification in tests).
func (g *Generator) CurrentContent(lba int64, buf []byte) {
	g.contentAt(lba, g.version[lba], g.freshAnchor[lba], buf)
}

// Summary describes the scaled stream for logs.
func (g *Generator) Summary() string {
	return fmt.Sprintf("%s: %d ops over %s (scale %.4g, %d VMs)",
		g.p.Name, g.numOps, ByteSize(g.dataBlocks*blockdev.BlockSize),
		g.opts.Scale, max(1, g.p.VMs))
}
