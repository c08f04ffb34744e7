package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"time"

	"icash/internal/blockdev"
	"icash/internal/harness"
	"icash/internal/metrics"
	"icash/internal/server"
	"icash/internal/sim"
	"icash/internal/workload"
)

// The served workload binds to the block service from outside: the
// icash-serve binary over a real socket, and — for the numbers a socket
// cannot show — the same request stream replayed in-process through
// server.Session and server.ShardRouter onto a system built the way
// icash-serve builds it.

// serveSpec sizes the served request stream. Load comes from this one
// process over conns connections (= nproc on the sandbox), closed loop:
// each connection keeps window requests in flight and sends the next
// only when a reply arrives.
type serveSpec struct {
	conns     int
	window    int
	requests  int // single-block requests per connection per rep
	readShare float64
	mutFrac   float64 // bytes changed per write, relative to the block
}

// connStream is one connection's deterministic request stream and its
// content oracle. The content of an LBA is a pure function of (seed,
// LBA, how many times the stream wrote it): the profile's initial fill
// with one field of mutFrac of the block rewritten. The stream therefore
// keeps a write count per LBA and two scratch blocks, and allocates
// nothing per request. Connections are pinned to distinct VM
// partitions, so streams share no LBA.
type connStream struct {
	spec      *serveSpec
	seed      uint64
	vm        uint32
	first     int64
	blocks    int64
	rng       *sim.Rand
	fill      *workload.Generator // initial-content oracle
	version   map[int64]uint32
	expect    map[uint64]expectation
	scratch   []byte
	issued    int
	completed int
	bad       int64 // wrong-content reads and non-OK replies
}

// expectation is what the reply to one in-flight request must be. The
// server executes one session's requests in order, so the content a
// read must return is known when it is issued.
type expectation struct {
	op  uint8
	crc uint32 // of the expected read payload
}

func newConnStream(w *workloadSpec, seed uint64, vm int) *connStream {
	gen := workload.NewGenerator(w.profile(), w.options(seed))
	return &connStream{
		spec:    w.serve,
		seed:    seed,
		vm:      uint32(vm),
		first:   int64(vm) * gen.ImageBlocks(),
		blocks:  gen.ImageBlocks(),
		rng:     sim.NewRand(seed*0x9E3779B97F4A7C15 + uint64(vm) + 1),
		fill:    gen,
		version: make(map[int64]uint32),
		expect:  make(map[uint64]expectation),
		scratch: make([]byte, blockdev.BlockSize),
	}
}

// content writes the content of lba after its v-th write into buf.
func (c *connStream) content(lba int64, v uint32, buf []byte) {
	c.fill.Fill(lba, buf)
	if v == 0 {
		return
	}
	r := sim.NewRand(c.seed ^ uint64(lba)*0x9E3779B97F4A7C15 ^ uint64(v)*0xD1B54A32D192ED03)
	run := int(c.spec.mutFrac * blockdev.BlockSize)
	pos := r.Intn(blockdev.BlockSize - run)
	r.Bytes(buf[pos : pos+run])
}

// next produces the stream's next request. A write's payload aliases
// the stream's scratch block and is valid until the next call.
func (c *connStream) next() server.Request {
	id := uint64(c.issued)
	c.issued++
	lba := c.first + c.rng.Int63n(c.blocks)
	req := server.Request{ID: id, LBA: uint64(lba), Blocks: 1}
	if c.rng.Float64() < c.spec.readShare {
		req.Op = server.OpRead
		c.content(lba, c.version[lba], c.scratch)
		c.expect[id] = expectation{op: server.OpRead, crc: blockdev.ContentCRC(c.scratch)}
		return req
	}
	c.version[lba]++
	c.content(lba, c.version[lba], c.scratch)
	req.Op = server.OpWrite
	req.Payload = c.scratch
	c.expect[id] = expectation{op: server.OpWrite}
	return req
}

// check accounts one reply against what the stream expected.
func (c *connStream) check(rep server.Reply) {
	e, ok := c.expect[rep.ID]
	delete(c.expect, rep.ID)
	c.completed++
	if !ok || rep.Status != server.StatusOK || (e.op == server.OpRead && blockdev.ContentCRC(rep.Payload) != e.crc) {
		c.bad++
	}
}

// ---------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------

// moduleRoot walks up from the working directory to the module's
// go.mod, so the benchmark runs from the root (go run) and from its own
// directory (go test) alike.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/icash-serve into the checkout's build
// directory (ignored by git) and returns the binary's path.
func buildServer(ctx context.Context) (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(root, ".bench_build", "icash-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/icash-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("benchmark: build icash-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// servedProc is a running icash-serve.
type servedProc struct {
	cmd     *exec.Cmd
	addr    string
	mu      sync.Mutex
	log     bytes.Buffer  // the server's stderr, for diagnostics
	drained chan struct{} // closed when stderr hit EOF
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServer spawns the server on an ephemeral port and returns once it
// reports its address — which it does after populating the array, so
// the elapsed time is the served workload's set-up.
func startServer(ctx context.Context, bin string, w *workloadSpec, seed uint64) (*servedProc, error) {
	p := w.profile()
	cmd := exec.CommandContext(ctx, bin,
		"-bench", p.Name, "-vms",
		"-shards", fmt.Sprint(w.shards),
		"-scale", fmt.Sprint(w.scale),
		"-seed", fmt.Sprint(seed),
		"-window", fmt.Sprint(w.serve.window),
		"-listen", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("benchmark: start icash-serve: %w", err)
	}
	sp := &servedProc{cmd: cmd, drained: make(chan struct{})}
	addrCh := make(chan string, 1) // one send: the first listening line
	go func() {
		defer close(sp.drained)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			sp.mu.Lock()
			sp.log.WriteString(line + "\n")
			sp.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil && !sent {
				sent = true
				addrCh <- m[1]
			}
		}
	}()
	select {
	case sp.addr = <-addrCh:
		return sp, nil
	case <-sp.drained:
		sp.stop()
		return nil, fmt.Errorf("benchmark: icash-serve exited before listening:\n%s", sp.stderrText())
	case <-time.After(60 * time.Second):
		sp.stop()
		return nil, fmt.Errorf("benchmark: icash-serve did not listen within 60s:\n%s", sp.stderrText())
	case <-ctx.Done():
		sp.stop()
		return nil, ctx.Err()
	}
}

func (sp *servedProc) stderrText() string {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.log.String()
}

// stop kills the server and returns once it has exited. The server has
// no shutdown command; its array is simulated state, so there is
// nothing to lose.
func (sp *servedProc) stop() {
	_ = sp.cmd.Process.Kill() // already-exited is the only failure, and it is the goal
	<-sp.drained
	_ = sp.cmd.Wait() // "signal: killed" is expected
}

// ---------------------------------------------------------------------
// The TCP client
// ---------------------------------------------------------------------

// connResult is one connection's share of a TCP rep.
type connResult struct {
	latUs []float64 // issue -> reply fully received, per request
	err   error
}

// driveTCP runs one connection's closed loop: handshake, keep window
// requests in flight until the stream's request budget is spent and
// answered, then close the session. tr, when non-nil, records the time
// spent writing and the time spent blocked waiting for replies.
func (c *connStream) driveTCP(addr string, tr *tracer) ([]float64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(120 * time.Second)); err != nil {
		return nil, err
	}
	window := c.spec.window
	rbuf := make([]byte, 256<<10)

	wbuf := server.AppendHello(nil, server.Hello{Version: server.ProtocolVersion, WantWindow: uint16(window), VM: c.vm})
	if _, err := conn.Write(wbuf); err != nil {
		return nil, err
	}
	var hs server.Decoder
	for {
		n, err := conn.Read(rbuf)
		if err != nil {
			return nil, fmt.Errorf("handshake: %w", err)
		}
		hs.Feed(rbuf[:n])
		hr, err := hs.NextHelloReply()
		if err == server.ErrNeedMore {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("handshake: %w", err)
		}
		if hr.Status != server.HandshakeOK || int(hr.Window) != window || int64(hr.FirstLBA) != c.first || int64(hr.Blocks) != c.blocks {
			return nil, fmt.Errorf("handshake: vm %d got status %d window %d partition [%d,+%d), want window %d partition [%d,+%d)",
				c.vm, hr.Status, hr.Window, hr.FirstLBA, hr.Blocks, window, c.first, c.blocks)
		}
		break
	}

	tracker := server.NewReplyTracker(window)
	issuedAt := make(map[uint64]time.Time, window)
	batch := make([]uint64, 0, window)
	lat := make([]float64, 0, c.spec.requests)
	total := c.spec.requests
	for c.completed < total {
		wbuf, batch = wbuf[:0], batch[:0]
		for tracker.Outstanding() < window && c.issued < total {
			req := c.next()
			if err := tracker.Issue(req.ID, req.Op); err != nil {
				return nil, err
			}
			wbuf = server.AppendRequest(wbuf, req)
			batch = append(batch, req.ID)
		}
		if len(batch) > 0 {
			now := time.Now()
			for _, id := range batch {
				issuedAt[id] = now
			}
			tr.begin("client.write", int64(batch[0]))
			_, err := conn.Write(wbuf)
			tr.end()
			if err != nil {
				return nil, err
			}
		}
		tr.begin("client.wait", int64(c.completed))
		n, err := conn.Read(rbuf)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("read after %d replies: %w", c.completed, err)
		}
		replies, err := tracker.Feed(rbuf[:n])
		if err != nil {
			return nil, err
		}
		now := time.Now()
		for _, rep := range replies {
			lat = append(lat, float64(now.Sub(issuedAt[rep.ID]).Nanoseconds())/1e3)
			delete(issuedAt, rep.ID)
			c.check(rep)
		}
	}

	// Close the session: the ack promises everything acknowledged was
	// flushed through the journal.
	closeID := uint64(c.issued)
	if err := tracker.Issue(closeID, server.OpClose); err != nil {
		return nil, err
	}
	if _, err := conn.Write(server.AppendRequest(wbuf[:0], server.Request{Op: server.OpClose, ID: closeID})); err != nil {
		return nil, err
	}
	for tracker.Outstanding() > 0 {
		n, err := conn.Read(rbuf)
		if err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		replies, err := tracker.Feed(rbuf[:n])
		if err != nil {
			return nil, err
		}
		for _, rep := range replies {
			if rep.Status != server.StatusOK {
				c.bad++
			}
		}
	}
	return lat, nil
}

// tcpRep is one rep of the served workload over the socket.
type tcpRep struct {
	setupS  float64 // spawn -> "listening" (includes the server's populate)
	wallS   float64 // first dial -> last session's close acknowledged
	replies int64
	bad     int64
	latUs   []float64 // sorted
	tracers []*tracer
}

// reqPerSec is replies per wall-second over the socket.
func (t *tcpRep) reqPerSec() float64 { return float64(t.replies) / t.wallS }

// runTCP spawns a fresh server, drives every connection to completion
// and stops the server. traced records client spans.
func (w *workloadSpec) runTCP(ctx context.Context, bin string, seed uint64, traced bool) (*tcpRep, error) {
	t0 := time.Now()
	sp, err := startServer(ctx, bin, w, seed)
	if err != nil {
		return nil, err
	}
	defer sp.stop()
	rep := &tcpRep{setupS: time.Since(t0).Seconds()}

	streams := make([]*connStream, w.serve.conns)
	results := make([]connResult, len(streams))
	rep.tracers = make([]*tracer, len(streams))
	for i := range streams {
		streams[i] = newConnStream(w, seed, i)
		if traced {
			rep.tracers[i] = newTracer()
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i].latUs, results[i].err = streams[i].driveTCP(sp.addr, rep.tracers[i])
		}(i)
	}
	wg.Wait()
	rep.wallS = time.Since(start).Seconds()
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("benchmark: connection %d: %w\nserver stderr:\n%s", i, r.err, sp.stderrText())
		}
		rep.replies += int64(streams[i].completed)
		rep.bad += streams[i].bad
		rep.latUs = append(rep.latUs, r.latUs...)
	}
	sort.Float64s(rep.latUs)
	return rep, nil
}

// ---------------------------------------------------------------------
// The in-process replay
// ---------------------------------------------------------------------

// shardBackend presents one LBA slice of sys.Dev as a server.Backend,
// the shape icash-serve hands the router per shard. It records the
// simulated service time of every call, and under tracing a span.
type shardBackend struct {
	dev    blockdev.Device
	base   int64
	blocks int64
	flush  func() error
	rec    *replayRep
	tr     *tracer
}

func (b *shardBackend) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	b.tr.begin("server.backend", -1)
	d, err := b.dev.ReadBlock(b.base+lba, buf)
	b.tr.end()
	b.rec.read.Record(d)
	return d, err
}

func (b *shardBackend) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	b.tr.begin("server.backend", -1)
	d, err := b.dev.WriteBlock(b.base+lba, buf)
	b.tr.end()
	b.rec.write.Record(d)
	return d, err
}

func (b *shardBackend) Flush() error  { return b.flush() }
func (b *shardBackend) Blocks() int64 { return b.blocks }

// routerSpan wraps the ShardRouter so its span (minus the backend's) is
// the router's own cost: routing plus the lockmap acquire and release.
type routerSpan struct {
	server.Backend
	tr *tracer
}

func (r routerSpan) ReadBlock(lba int64, buf []byte) (sim.Duration, error) {
	r.tr.begin("server.router", -1)
	d, err := r.Backend.ReadBlock(lba, buf)
	r.tr.end()
	return d, err
}

func (r routerSpan) WriteBlock(lba int64, buf []byte) (sim.Duration, error) {
	r.tr.begin("server.router", -1)
	d, err := r.Backend.WriteBlock(lba, buf)
	r.tr.end()
	return d, err
}

// replayRep is one in-process replay of the served stream.
type replayRep struct {
	hostCost
	ops   int64
	bad   int64
	read  metrics.Histogram // simulated service time per block read
	write metrics.Histogram
}

// simReqPerSec is requests per simulated second of array service: the
// session reports service times but does not advance a clock, so the
// serial-equivalent rate is the one simulated rate the stream has.
func (r *replayRep) simReqPerSec() float64 {
	return float64(r.ops) / (r.read.Sum() + r.write.Sum()).Seconds()
}

func (r *replayRep) fingerprint() string {
	return fmt.Sprintf("%d %d/%d %d/%d", r.ops, r.read.Count(), r.read.Sum(), r.write.Count(), r.write.Sum())
}

// replay feeds the served request stream — the same seeded requests the
// TCP connections send, interleaved round-robin one request at a time —
// through one server.Session per connection onto a ShardRouter over the
// system of the given kind. tr, when non-nil, records feed/router/
// backend spans and a CPU profile of the replay.
func (w *workloadSpec) replay(seed uint64, kind harness.Kind, tr *tracer) (*replayRep, error) {
	rep := &replayRep{}
	s, err := w.setup(kind, seed)
	if err != nil {
		return nil, err
	}

	// I-CASH is routed per shard like the server does; a baseline is
	// one whole-device backend.
	nsh := 1
	if kind == harness.ICASH {
		nsh = w.shards
	}
	per := s.sys.Dev.Blocks() / int64(nsh)
	backends := make([]server.Backend, nsh)
	for i := range backends {
		backends[i] = &shardBackend{dev: s.sys.Dev, base: int64(i) * per, blocks: per, flush: s.sys.Flush, rec: rep, tr: tr}
	}
	router, err := server.NewShardRouter(backends)
	if err != nil {
		return nil, err
	}
	backend := routerSpan{router, tr}

	image := s.gen.ImageBlocks()
	vms := w.profile().VMs
	partition := func(vm uint32) (int64, int64, bool) {
		if int(vm) < vms {
			return int64(vm) * image, image, true
		}
		return 0, 0, false
	}
	type client struct {
		stream  *connStream
		sess    *server.Session
		tracker *server.ReplyTracker
	}
	clients := make([]*client, w.serve.conns)
	var wire []byte
	for i := range clients {
		c := &client{
			stream:  newConnStream(w, seed, i),
			sess:    server.NewSession(fmt.Sprintf("replay%d", i), backend, server.SessionOptions{MaxWindow: w.serve.window, Partition: partition}),
			tracker: server.NewReplyTracker(w.serve.window),
		}
		wire = server.AppendHello(wire[:0], server.Hello{Version: server.ProtocolVersion, WantWindow: uint16(w.serve.window), VM: uint32(i)})
		if _, err := c.sess.Feed(wire); err != nil {
			return nil, fmt.Errorf("benchmark: replay handshake: %w", err)
		}
		if c.sess.State() != server.StateServing {
			return nil, fmt.Errorf("benchmark: replay session %d is %v after handshake", i, c.sess.State())
		}
		clients[i] = c
	}

	exchange := func(c *client, req server.Request) error {
		if err := c.tracker.Issue(req.ID, req.Op); err != nil {
			return err
		}
		wire = server.AppendRequest(wire[:0], req)
		tr.begin("server.feed", int64(req.ID))
		out, err := c.sess.Feed(wire)
		tr.end()
		if err != nil {
			return err
		}
		replies, err := c.tracker.Feed(out)
		if err != nil {
			return err
		}
		for _, r := range replies {
			if req.Op == server.OpClose {
				if r.Status != server.StatusOK {
					c.stream.bad++
				}
				continue
			}
			c.stream.check(r)
		}
		return nil
	}

	rep.hostCost, err = measure(tr != nil, func() error {
		for n := 0; n < w.serve.requests; n++ {
			for _, c := range clients {
				if err := exchange(c, c.stream.next()); err != nil {
					return err
				}
			}
		}
		for _, c := range clients {
			if err := exchange(c, server.Request{Op: server.OpClose, ID: uint64(c.stream.issued)}); err != nil {
				return fmt.Errorf("close: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("benchmark: replay: %w", err)
	}
	for _, c := range clients {
		rep.ops += int64(c.stream.completed)
		rep.bad += c.stream.bad
	}
	runtime.KeepAlive(s)
	return rep, nil
}
