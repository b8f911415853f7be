package gateway

import (
	"fmt"
	"sync"
	"time"

	"tnb/internal/stream"
)

// A real LoRaWAN gateway listens on several channels at several spreading
// factors at once. This file gives the server that shape: every accepted
// connection declares its (channel, SF) in the hello, and its decode work
// is routed to the shard for that pair — a bounded-queue worker goroutine
// owning all decodes on that logical radio. Connections sharing a shard
// serialize behind its queue (decode order within one stream is preserved
// because a connection has at most one batch in flight), while distinct
// shards decode concurrently, one goroutine each, with the receiver's own
// worker pool (Server.Workers) fanning out inside a decode.
//
// Backpressure follows the PR-5 pattern: the queue is bounded, a submit
// that cannot enqueue within the grace period fails with a typed
// *ShardOverloadError, and the server answers the client with a
// {"code":"shard_overload"} verdict instead of buffering without bound.

// MaxChannels is the number of logical uplink channels a gateway serves
// (the EU868/US915 8-channel baseline). Hello.Channel must be below it.
const MaxChannels = 8

// Shard-queue sizing: how many decode batches may wait per shard, and how
// long a submit waits for room before the connection is shed.
const (
	shardQueue = 16
	shardWait  = 10 * time.Second
)

// ShardKey identifies one (channel, SF) decode shard.
type ShardKey struct {
	Channel int
	SF      int
}

// String renders the key the way shard metric labels spell it.
func (k ShardKey) String() string { return fmt.Sprintf("c%d_sf%d", k.Channel, k.SF) }

// ShardOverloadError is returned by a shard submit that found the queue
// full past the grace period: the shard is processing as fast as it can
// and the connection must back off.
type ShardOverloadError struct {
	Key   ShardKey
	Queue int // the configured queue depth
}

func (e *ShardOverloadError) Error() string {
	return fmt.Sprintf("gateway: shard %s queue full (%d batches waiting)", e.Key, e.Queue)
}

// shardJob is one unit of shard work. do runs on the shard worker
// goroutine; its result is delivered on done (buffered, never blocking the
// worker). Jobs carry a closure rather than a streamer so the queueing
// machinery stays independent of the decode types (and testable without
// samples).
type shardJob struct {
	do   func() shardResult
	done chan shardResult
}

type shardResult struct {
	decoded []stream.Decoded
	err     error
}

// shard is one (channel, SF) decode lane: a bounded queue drained by a
// single worker goroutine.
type shard struct {
	key  ShardKey
	jobs chan shardJob
	met  *ShardMetrics
	amet *Metrics
}

func (sh *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for job := range sh.jobs {
		res := job.do()
		sh.met.onBatch()
		sh.amet.onShardBatch()
		job.done <- res
	}
}

// submit enqueues a job, waiting up to wait for room; a non-positive wait
// sheds immediately when the queue is full.
func (sh *shard) submit(job shardJob, wait time.Duration) error {
	select {
	case sh.jobs <- job:
		sh.met.onEnqueue()
		return nil
	default:
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case sh.jobs <- job:
			sh.met.onEnqueue()
			return nil
		case <-t.C:
		}
	}
	return &ShardOverloadError{Key: sh.key, Queue: cap(sh.jobs)}
}

// exec submits do and waits for its result. The caller blocks until the
// shard worker has run the job, so one connection never has two batches in
// flight — that is what keeps per-stream decode order intact.
func (sh *shard) exec(wait time.Duration, do func() shardResult) ([]stream.Decoded, error) {
	job := shardJob{do: do, done: make(chan shardResult, 1)}
	if err := sh.submit(job, wait); err != nil {
		return nil, err
	}
	res := <-job.done
	sh.met.onDequeue()
	return res.decoded, res.err
}

// sharder owns the lazily created shards of one Server.
type sharder struct {
	mu     sync.Mutex
	shards map[ShardKey]*shard
	wg     sync.WaitGroup
	closed bool

	queue int
	reg   registryRef
	amet  *Metrics
}

// registryRef is the subset of metric wiring a sharder needs; kept as a
// tiny indirection so shard creation works with a nil registry.
type registryRef struct {
	newShardMetrics func(ShardKey) *ShardMetrics
}

func newSharder(queue int, amet *Metrics, newSM func(ShardKey) *ShardMetrics) *sharder {
	return &sharder{
		shards: make(map[ShardKey]*shard),
		queue:  queue,
		reg:    registryRef{newShardMetrics: newSM},
		amet:   amet,
	}
}

// get returns the shard for key, creating and starting it on first use.
// After close it returns nil (the server is draining).
func (s *sharder) get(key ShardKey) *shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if sh, ok := s.shards[key]; ok {
		return sh
	}
	var sm *ShardMetrics
	if s.reg.newShardMetrics != nil {
		sm = s.reg.newShardMetrics(key)
	}
	sh := &shard{key: key, jobs: make(chan shardJob, s.queue), met: sm, amet: s.amet}
	s.shards[key] = sh
	s.amet.onShardOpen()
	s.wg.Add(1)
	go sh.run(&s.wg)
	return sh
}

// size returns the number of live shards.
func (s *sharder) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards)
}

// close stops every shard worker after its queue drains and waits for
// them. Callers must ensure no connection will submit again (the server
// closes only after its handler WaitGroup drains).
func (s *sharder) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for _, sh := range s.shards {
		close(sh.jobs)
	}
	s.mu.Unlock()
	s.wg.Wait()
}
