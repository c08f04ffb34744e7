package harness

import (
	"runtime"
	"sync/atomic"

	"icash/internal/blockdev"
	"icash/internal/workload"
)

// Stream-stage sizes: a producer hands over up to batchReqs requests,
// or batchBlocks blocks of their write content, at a time, through
// stageBatches batches per stream; a side that finds its channel empty
// yields up to maxSpins times before it parks. The spinning, not the
// batch size, keeps hand-overs cheap, so batches stay small, and a
// group of n streams splits each batch size n ways (at least one), so
// its batches hold about what one stream's do.
const (
	stageBatches = 3
	batchReqs    = 32
	batchBlocks  = 3
	maxSpins     = 10000
)

// streamBatch is one hand-over of a stream: requests and the content of
// their written blocks, in stream order, and the pump's place in them.
// A request's content may continue at the head of the stream's next
// batch. Content blocks come from the block pool on first use, so a
// stream that never writes takes none.
type streamBatch struct {
	stream int
	reqs   []workload.Request
	blocks [][]byte
	nblk   int
	eof    bool // the stream ended after reqs
	ri, bi int  // the pump's next request and content block
}

// streamStage is the one feed a run group draws its streams' requests
// and write contents from, each stream in its own order. Without a
// producer the pump draws them straight from the streams' generators.
// With one, the producer owns the generators for the run and touches no
// clock, device or station: it fills each stream's batches ahead of the
// pump, which takes the same requests and contents in the same order,
// so the run is the same to the byte.
//
// Batches carry their stream and circulate over one free channel, which
// the producer drains, and one full channel per stream, which the pump
// drains. Each channel holds every batch that can reach it, so no send
// blocks and neither side needs a select.
type streamStage struct {
	streams []*workload.Generator // the run's streams
	ids     []int                 // stream k of the stage is streams[ids[k]]
	cur     []*streamBatch        // the pump's batch of each stream
	batches []streamBatch
	free    chan *streamBatch // nil without a producer
	full    []chan *streamBatch
	stopped atomic.Bool
}

// newStreamStage builds the feed of streams[ids[k]] as its stream k,
// with a producer when produced is set. Each stream then starts on an
// empty batch, and its other batches wait in free.
func newStreamStage(streams []*workload.Generator, ids []int, produced bool) *streamStage {
	st := &streamStage{streams: streams, ids: ids}
	if !produced {
		return st
	}
	n := len(ids)
	nr, nb := max(1, batchReqs/n), max(1, batchBlocks/n)
	st.cur = make([]*streamBatch, n)
	st.batches = make([]streamBatch, n*stageBatches)
	st.free = make(chan *streamBatch, len(st.batches))
	st.full = make([]chan *streamBatch, n)
	reqs := make([]workload.Request, len(st.batches)*nr)
	blocks := make([][]byte, len(st.batches)*nb)
	for i := range st.batches {
		b := &st.batches[i]
		b.stream = i % n
		b.reqs = reqs[i*nr : i*nr : (i+1)*nr]
		b.blocks = blocks[i*nb : (i+1)*nb]
		if i < n {
			st.cur[i] = b
			st.full[i] = make(chan *streamBatch, stageBatches)
		} else {
			st.free <- b
		}
	}
	return st
}

// produce refills the batches the pump hands back, each from its own
// stream, until the pump stops the stage; a stream that has ended
// refills as another end. Writes are clipped at devBlocks, as the pump
// clips them.
func (st *streamStage) produce(devBlocks int64) {
	type due struct {
		lba  int64
		left int // blocks of the stream's last write whose content is still due
	}
	dues := make([]due, len(st.ids))
	for {
		b := await(st.free)
		if st.stopped.Load() {
			return
		}
		gen, d := st.streams[st.ids[b.stream]], &dues[b.stream]
		b.reqs, b.nblk, b.ri, b.bi = b.reqs[:0], 0, 0, 0
		for b.nblk < len(b.blocks) {
			if d.left > 0 {
				if b.blocks[b.nblk] == nil {
					b.blocks[b.nblk] = blockdev.GetBlock()
				}
				gen.WriteContent(d.lba, b.blocks[b.nblk])
				b.nblk++
				d.lba++
				d.left--
				continue
			}
			if len(b.reqs) == cap(b.reqs) {
				break
			}
			req, ok := gen.Next()
			if !ok {
				b.eof = true
				break
			}
			b.reqs = append(b.reqs, req)
			if req.Write {
				d.lba, d.left = req.LBA, int(max(0, min(int64(req.Blocks), devBlocks-req.LBA)))
			}
		}
		st.full[b.stream] <- b
	}
}

// advance hands stream k's used-up batch back and takes its next one.
func (st *streamStage) advance(k int) *streamBatch {
	st.free <- st.cur[k]
	st.cur[k] = await(st.full[k])
	return st.cur[k]
}

// await receives from ch, first yielding while it is empty. Handing a
// batch to a parked receiver would cost the sender a wake-up on its
// critical path, once per batch; a side that is ahead spins on its own
// core instead, and parks only when the other side stalls for long.
func await(ch chan *streamBatch) *streamBatch {
	for spin := 0; len(ch) == 0 && spin < maxSpins; spin++ {
		runtime.Gosched()
	}
	return <-ch
}

// next is stream k's Generator.Next.
func (st *streamStage) next(k int) (workload.Request, bool) {
	if st.free == nil {
		return st.streams[st.ids[k]].Next()
	}
	b := st.cur[k]
	for b.ri == len(b.reqs) {
		if b.eof {
			return workload.Request{}, false
		}
		b = st.advance(k)
	}
	b.ri++
	return b.reqs[b.ri-1], true
}

// content returns a block holding stream k's next written block, lba:
// generated into buf without a producer, the producer's block with one
// (it is lba's because both sides walk the same requests).
func (st *streamStage) content(k int, lba int64, buf []byte) []byte {
	if st.free == nil {
		st.streams[st.ids[k]].WriteContent(lba, buf)
		return buf
	}
	b := st.cur[k]
	for b.bi == b.nblk {
		b = st.advance(k)
	}
	b.bi++
	return b.blocks[b.bi-1]
}

// stop ends a producer, however the pump ended: it raises the flag and
// hands back a batch, which wakes a producer waiting for one.
func (st *streamStage) stop() {
	if st.free != nil {
		st.stopped.Store(true)
		st.free <- st.cur[0]
	}
}

// release returns the stage's content blocks to the pool, once both
// sides are done.
func (st *streamStage) release() {
	for i := range st.batches {
		for _, b := range st.batches[i].blocks {
			blockdev.PutBlock(b)
		}
	}
}
