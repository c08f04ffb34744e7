package harness

import (
	"runtime"
	"sync/atomic"

	"icash/internal/blockdev"
	"icash/internal/workload"
)

// source is where a run draws one stream's requests and the content of
// their written blocks, in stream order: the stream's generator itself
// (inline), or the stream stage.
type source interface {
	Next() (workload.Request, bool)
	// content returns a block holding the next write's content for lba.
	content(lba int64) []byte
}

// inline draws a stream straight from its generator, generating each
// write's content into the group's block buffer.
type inline struct {
	*workload.Generator
	buf []byte
}

func (s *inline) content(lba int64) []byte {
	s.WriteContent(lba, s.buf)
	return s.buf
}

// Stream-stage sizes: the stage hands over up to batchReqs requests,
// or batchBlocks blocks of their write content, at a time, through
// stageBatches batches in rotation; a side that finds its channel empty
// yields up to maxSpins times before it parks. The spinning, not the
// batch size, is what keeps hand-overs cheap, so batches stay small:
// every run takes the stage's blocks afresh, and nine are 1.6 % of the
// bytes a LoadSim run of 4 900 requests allocates.
const (
	stageBatches = 3
	batchReqs    = 32
	batchBlocks  = 3
	maxSpins     = 10000
)

// streamBatch is one hand-over of the stream stage: requests and the
// content of their written blocks, in stream order. A request's content
// may continue at the head of the next batch.
type streamBatch struct {
	reqs   []workload.Request
	blocks [batchBlocks][]byte
	nblk   int
	eof    bool // the stream ended after reqs
}

// streamStage is the producer/consumer pair behind a single-stream run
// on two or more workers. The producer owns the stream's generator for
// the run: it calls Next and WriteContent, and touches no clock, device
// or station. The consumer (the pump) takes the same requests and
// contents in the same order from the batches, so the run is the inline
// run to the byte.
//
// Batches circulate over two channels whose capacity is the batch
// count, so no send ever blocks and neither side needs a select: the
// producer receives an empty batch from free, fills it and sends it on
// full; the consumer returns each batch it has used up to free.
type streamStage struct {
	batches    [stageBatches]streamBatch
	free, full chan *streamBatch
	stopped    atomic.Bool

	cur    *streamBatch // the consumer's batch
	ri, bi int          // next request and content block in cur
}

func newStreamStage() *streamStage {
	st := &streamStage{
		free: make(chan *streamBatch, stageBatches),
		full: make(chan *streamBatch, stageBatches),
	}
	for i := range st.batches {
		b := &st.batches[i]
		b.reqs = make([]workload.Request, 0, batchReqs)
		for k := range b.blocks {
			b.blocks[k] = blockdev.GetBlock()
		}
		st.free <- b
	}
	return st
}

// produce draws gen to the end of its stream, or until the consumer
// stops the stage. Writes are clipped at devBlocks, as the pump clips
// them.
func (st *streamStage) produce(gen *workload.Generator, devBlocks int64) {
	var lba int64
	left := 0 // blocks of the last write whose content is still due
	for {
		b := await(st.free)
		if st.stopped.Load() {
			return
		}
		b.reqs, b.nblk = b.reqs[:0], 0
		for b.nblk < batchBlocks {
			if left > 0 {
				gen.WriteContent(lba, b.blocks[b.nblk])
				b.nblk++
				lba++
				left--
				continue
			}
			if len(b.reqs) == batchReqs {
				break
			}
			req, ok := gen.Next()
			if !ok {
				b.eof = true
				break
			}
			b.reqs = append(b.reqs, req)
			if req.Write {
				lba, left = req.LBA, int(max(0, min(int64(req.Blocks), devBlocks-req.LBA)))
			}
		}
		st.full <- b
		if b.eof {
			return
		}
	}
}

// advance hands the used-up batch back and takes the next one.
func (st *streamStage) advance() {
	st.free <- st.cur
	st.cur, st.ri, st.bi = await(st.full), 0, 0
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

// Next is the consumer's Generator.Next.
func (st *streamStage) Next() (workload.Request, bool) {
	for st.ri == len(st.cur.reqs) {
		if st.cur.eof {
			return workload.Request{}, false
		}
		st.advance()
	}
	st.ri++
	return st.cur.reqs[st.ri-1], true
}

// content returns the block the producer generated for the next
// written block; it is lba's because both sides walk the same requests.
func (st *streamStage) content(int64) []byte {
	for st.bi == st.cur.nblk {
		st.advance()
	}
	st.bi++
	return st.cur.blocks[st.bi-1]
}

// runStaged drives grp, the run's one group of one stream, through a
// stream stage: ForEachPoint's point 0, on the calling goroutine, is
// the pump on the system clock, and point 1 the producer. However the
// pump ends, it then stops the producer: it raises the flag and hands
// back its batch, which wakes a producer waiting for one.
func runStaged(sys *System, grp *runGroup, gen *workload.Generator, qd int, caches []*pageCache) error {
	grp.clock = sys.Clock
	st := newStreamStage()
	defer st.release()
	devBlocks := sys.Dev.Blocks()
	return ForEachPoint(2, 2, func(point int) error {
		if point == 1 {
			st.produce(gen, devBlocks)
			return nil
		}
		buf := blockdev.GetBlock()
		defer blockdev.PutBlock(buf)
		st.cur = await(st.full)
		defer func() {
			st.stopped.Store(true)
			st.free <- st.cur
		}()
		return grp.drive(sys, gen.Profile(), qd, []source{st}, caches, buf)
	})
}

// release returns the stage's blocks to the pool, once both sides are
// done.
func (st *streamStage) release() {
	for i := range st.batches {
		for _, b := range st.batches[i].blocks {
			blockdev.PutBlock(b)
		}
	}
}
