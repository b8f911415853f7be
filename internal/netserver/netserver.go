// Package netserver is the LoRaWAN network-server layer above the gateway
// fleet: many gateways decode PHY payloads on their (channel, SF) shards
// and forward them here as Uplinks; the netserver turns that redundant,
// encrypted stream into exactly-once application deliveries.
//
// It implements the four MAC-layer jobs a deployment needs:
//
//   - Cross-gateway dedup: the same transmission is usually heard by
//     several gateways. Copies are matched by (DevAddr, FCnt, payload
//     hash) — (DevEUI, DevNonce, hash) for joins — inside a dedup window
//     anchored at the first copy's receive time; the frame is delivered
//     once, at window expiry, crediting the best-SNR gateway.
//   - OTAA joins: a verified JoinRequest from a provisioned device draws a
//     deterministic DevAddr/AppNonce, the LoRaWAN 1.0 session keys are
//     derived on both sides, and the JoinAccept downlink frame is returned
//     in the join event. DevNonce replay is refused.
//   - Session data: data frames are MIC-verified and decrypted against the
//     device session table, with FCnt replay protection.
//   - Per-tenant quotas: deliveries are charged to the device's tenant
//     token bucket in logical time; an exhausted bucket turns the delivery
//     into a quota_exceeded drop.
//
// Ingest is a sharded pipeline (DESIGN.md §14): a serial route pass stamps
// logical clocks and arrival indexes and splits the batch into a fast lane
// (data frames for known, quiescent devices — the steady state) and a slow
// lane (joins and frames whose session state is in motion). Fast frames
// are MIC-verified on the worker pool with cached per-session ciphers and
// committed concurrently on per-device-EUI state shards; the slow lane and
// all cross-cutting state (quotas, counters, tracing) run in a serial
// merge that interleaves every shard's records in logical-clock +
// arrival-index order. The event stream is byte-identical at every worker
// width and shard count. Time is logical (Uplink.TimeSec), never the wall
// clock, so a fixed fleet seed replays to the same bytes.
package netserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"tnb/internal/lorawan"
	"tnb/internal/obs"
	"tnb/internal/parallel"
)

// ErrConcurrentUse is returned by Ingest/AdvanceTo/Flush when a call
// overlaps another: the Server is a stateful single-consumer pipeline and
// must be driven from one goroutine at a time (the Streamer contract).
// Stats and the HTTP handler remain safe to call concurrently.
var ErrConcurrentUse = errors.New("netserver: concurrent Ingest/AdvanceTo/Flush call")

// Uplink is one decoded PHY payload forwarded by a gateway: the LoRaWAN
// frame bytes plus the reception metadata the netserver needs for dedup
// and shard accounting.
type Uplink struct {
	GatewayID string  `json:"gateway"`
	Channel   int     `json:"channel"`
	SF        int     `json:"sf"`
	TimeSec   float64 `json:"time_sec"` // logical receive time
	SNRdB     float64 `json:"snr_db"`
	Payload   []byte  `json:"payload"` // LoRaWAN frame bytes
}

// Device provisions one OTAA device: its identity, root key and tenant.
type Device struct {
	DevEUI lorawan.EUI
	AppEUI lorawan.EUI
	AppKey []byte
	Tenant string
}

// Quota is a per-tenant token bucket charged one token per delivery, in
// logical time. The zero value means unlimited.
type Quota struct {
	RatePerSec float64 // sustained deliveries per second
	Burst      float64 // bucket depth (0 with a rate selects 1)
}

const (
	// NetID is the 24-bit network identifier placed in join accepts.
	NetID = 0x000013
	// DevAddrBase is OR'd with the join counter to form assigned device
	// addresses.
	DevAddrBase = 0x26000000
)

// Defaults for Config zero values.
const (
	DefaultDedupWindowSec = 0.2
	DefaultShards         = 8
)

// Config tunes a Server.
type Config struct {
	// DedupWindowSec is how long after the first copy of a frame the
	// netserver waits for more gateway copies before delivering. 0 selects
	// DefaultDedupWindowSec; negative delivers immediately.
	DedupWindowSec float64
	// Workers is the verification fan-out width (parallel.Workers
	// semantics: 0 → GOMAXPROCS, 1 → serial). Output is byte-identical at
	// every width.
	Workers int
	// Shards is the number of lock-striped state shards device state is
	// spread over; commit runs concurrently across shards. 0 selects
	// DefaultShards; negative selects 1. Output is byte-identical at every
	// shard count.
	Shards int
	// Devices is the OTAA provisioning table.
	Devices []Device
	// Quotas maps tenant → quota; tenants not listed are unlimited.
	Quotas map[string]Quota
	// Metrics receives the netserver instruments; nil disables them.
	Metrics *Metrics
	// Tracer, when non-nil, mirrors every drop event into the trace
	// stream as an obs "net" record (reason, logical time, origin), so a
	// trace store can answer "which gateway fed the bad_mic frames".
	// Emission happens in the serial merge phase, so record order is
	// identical at every Workers width and shard count.
	Tracer *obs.Tracer
}

// Event is one netserver output record, emitted as a JSON line by the
// drivers. Type is "join", "delivery" or "drop".
type Event struct {
	Type    string  `json:"type"`
	TimeSec float64 `json:"time_sec"`
	DevEUI  string  `json:"dev_eui,omitempty"`
	DevAddr string  `json:"dev_addr,omitempty"`
	FCnt    int     `json:"fcnt,omitempty"`
	FPort   int     `json:"fport,omitempty"`
	// Payload is the decrypted application payload on deliveries.
	Payload []byte `json:"payload,omitempty"`
	Channel int    `json:"channel"`
	SF      int    `json:"sf"`
	// Gateway is the best-SNR reception; Gateways lists every gateway that
	// contributed a copy (sorted); Copies counts the merged receptions.
	Gateway  string   `json:"gateway,omitempty"`
	SNRdB    float64  `json:"snr_db,omitempty"`
	Copies   int      `json:"copies,omitempty"`
	Gateways []string `json:"gateways,omitempty"`
	Tenant   string   `json:"tenant,omitempty"`
	// JoinAccept carries the encrypted downlink frame for the device on
	// join events; the device parses it with its AppKey and derives the
	// same session keys the netserver stored.
	JoinAccept []byte `json:"join_accept,omitempty"`
	// Reason classifies drops: malformed, unsupported_mtype,
	// unknown_device, unknown_devaddr, bad_mic, replayed_devnonce,
	// replayed_fcnt, quota_exceeded.
	Reason string `json:"reason,omitempty"`
}

// Drop reasons (Event.Reason).
const (
	ReasonMalformed        = "malformed"
	ReasonUnsupportedMType = "unsupported_mtype"
	ReasonUnknownDevice    = "unknown_device"
	ReasonUnknownDevAddr   = "unknown_devaddr"
	ReasonBadMIC           = "bad_mic"
	ReasonReplayedDevNonce = "replayed_devnonce"
	ReasonReplayedFCnt     = "replayed_fcnt"
	ReasonQuotaExceeded    = "quota_exceeded"
)

// session is one activated device: the derived key ciphers (expanded once
// at join, so per-frame verify/decrypt is schedule-free), the identity
// strings every event repeats, and the uplink state.
type session struct {
	devEUI     lorawan.EUI
	devAddr    lorawan.DevAddr
	tenant     string
	devEUIStr  string
	devAddrStr string
	nwkKC      *lorawan.KeyCipher
	appKC      *lorawan.KeyCipher
	lastFCnt   int64 // highest accepted FCnt; -1 before the first uplink
	shard      int   // shardOf(devEUI), cached
}

// deviceState is one provisioned device's server-side record.
type deviceState struct {
	dev    Device
	appKC  *lorawan.KeyCipher // cached root-key cipher
	nonces nonceWindow
	sess   *session // nil until joined
}

// shardStat accumulates per-(channel, SF) traffic.
type shardStat struct {
	Uplinks   uint64 `json:"uplinks"`
	Delivered uint64 `json:"delivered"`
}

// chCounter is one (channel, SF) tally row; gwCounter and reasonCounter
// are the per-gateway and per-drop-reason equivalents.
type chCounter struct {
	ch, sf int
	shardStat
}

type gwCounter struct {
	id string
	n  uint64
}

type reasonCounter struct {
	reason string
	n      uint64
}

// Pipeline thresholds: batches below pipelineMinBatch (or Workers=1) run
// inline — the goroutine plumbing costs more than it buys on small
// batches. pipelineChunk is the verify hand-off granularity; the committer
// queues are bounded so a slow shard back-pressures verify instead of
// buffering the whole batch (the old full-batch barrier).
const (
	pipelineMinBatch  = 32
	pipelineChunk     = 16
	committerQueueCap = 128
)

// Server is the network server. Build it with New; drive it with Ingest
// (one goroutine), read it with Stats/Handler (any goroutine).
type Server struct {
	cfg    Config
	window float64
	met    *Metrics
	inUse  atomic.Bool

	mu       sync.Mutex
	nshards  int
	devices  map[lorawan.EUI]*deviceState
	sessions map[lorawan.DevAddr]*session
	shards   []*ingestShard

	// Slow lane: windows owned by the serial merge — joins, and data for
	// devices with a join in flight. slowDevs refcounts each device's live
	// slow windows (while >0 its new traffic keeps routing slow);
	// batchSlow lists devices with a join in the current batch.
	slow      pendTable
	slowDevs  map[lorawan.EUI]int
	batchSlow []lorawan.EUI

	clock     float64
	seq       uint64 // global arrival index, monotone across batches
	joinCount uint32
	buckets   map[string]*bucket

	// Per-gateway, per-reason and per-(channel,SF) tallies. These are
	// linear-scanned slices, not maps: their cardinality is the deployment's
	// gateway / drop-reason / channel-plan count (a handful), and at that
	// size a scan beats hashing on the per-uplink increment path while
	// costing zero map-growth allocations.
	chStats    []chCounter
	gateways   []gwCounter
	dropReason []reasonCounter

	// Per-batch scratch, capacity-reused so the steady state allocates
	// nothing.
	route         []routeInfo
	statelessRecs []rec
	slowItems     []int
	mergeRecs     []rec
	verifySc      []lorawan.Scratch
	commitSc      []lorawan.Scratch
	mergeSc       lorawan.Scratch

	nUplinks, nJoins, nDelivered, nDups, nDrops, nQuota uint64
}

// New builds a Server from cfg. Devices with short keys are rejected.
func New(cfg Config) (*Server, error) {
	window := cfg.DedupWindowSec
	if window == 0 {
		window = DefaultDedupWindowSec
	}
	if window < 0 {
		window = 0
	}
	nshards := cfg.Shards
	if nshards == 0 {
		nshards = DefaultShards
	}
	if nshards < 1 {
		nshards = 1
	}
	s := &Server{
		cfg:      cfg,
		window:   window,
		met:      cfg.Metrics,
		nshards:  nshards,
		devices:  make(map[lorawan.EUI]*deviceState, len(cfg.Devices)),
		sessions: make(map[lorawan.DevAddr]*session, len(cfg.Devices)),
		shards:   make([]*ingestShard, nshards),
		slowDevs: make(map[lorawan.EUI]int),
	}
	// One backing array for the stripes; the per-stripe dedup key index is
	// created lazily on first insert (pendTable.add), so an idle shard
	// costs nothing.
	backing := make([]ingestShard, nshards)
	for i := range s.shards {
		s.shards[i] = &backing[i]
	}
	for _, d := range cfg.Devices {
		if len(d.AppKey) != 16 {
			return nil, fmt.Errorf("netserver: device %s AppKey is %d bytes, want 16", d.DevEUI, len(d.AppKey))
		}
		if _, dup := s.devices[d.DevEUI]; dup {
			return nil, fmt.Errorf("netserver: device %s provisioned twice", d.DevEUI)
		}
		kc, err := lorawan.NewKeyCipher(d.AppKey)
		if err != nil {
			return nil, fmt.Errorf("netserver: device %s: %w", d.DevEUI, err)
		}
		s.devices[d.DevEUI] = &deviceState{dev: d, appKC: kc}
	}
	if len(cfg.Quotas) > 0 {
		s.buckets = make(map[string]*bucket, len(cfg.Quotas))
		for tenant, q := range cfg.Quotas {
			if q.RatePerSec <= 0 {
				continue // unlimited
			}
			burst := q.Burst
			if burst <= 0 {
				burst = 1
			}
			s.buckets[tenant] = &bucket{rate: q.RatePerSec, burst: burst, tokens: burst}
		}
	}
	s.met.setShardCount(nshards)
	return s, nil
}

// bucket is a logical-time token bucket.
type bucket struct {
	rate, burst, tokens, last float64
}

// allow charges one token at logical time t (nondecreasing).
func (b *bucket) allow(t float64) bool {
	if b == nil {
		return true
	}
	if t > b.last {
		b.tokens += (t - b.last) * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = t
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// Ingest feeds one batch of uplinks, ordered by TimeSec, and returns the
// events they produced (including deliveries of earlier frames whose dedup
// window expired as the batch's logical clock advanced). MIC verification
// runs on the worker pool and commits run concurrently per state shard,
// pipelined through bounded queues; the serial merge re-interleaves the
// records in logical-clock + arrival-index order, so the event stream is
// identical at every worker width and shard count.
func (s *Server) Ingest(batch []Uplink) ([]Event, error) {
	if !s.inUse.CompareAndSwap(false, true) {
		return nil, ErrConcurrentUse
	}
	defer s.inUse.Store(false)
	s.mu.Lock()
	defer s.mu.Unlock()

	s.routeBatch(batch)

	workers := parallel.Workers(s.cfg.Workers)
	if workers > len(batch) {
		workers = len(batch)
	}
	if workers <= 1 || len(batch) < pipelineMinBatch {
		s.runInline(batch)
	} else {
		s.runPipelined(batch, workers)
	}

	evs := s.mergeAndFinalize(nil, batch, &s.mergeSc, s.clock)
	s.updateGauges()
	return evs, nil
}

// AdvanceTo moves the logical clock to t, delivering every pending frame
// whose dedup window expired by then. Use it when the uplink stream goes
// quiet but time still passes (the fleet drivers call it between phases).
func (s *Server) AdvanceTo(t float64) ([]Event, error) {
	if !s.inUse.CompareAndSwap(false, true) {
		return nil, ErrConcurrentUse
	}
	defer s.inUse.Store(false)
	s.mu.Lock()
	defer s.mu.Unlock()
	if t < s.clock {
		t = s.clock
	}
	s.clock = t
	for _, sh := range s.shards {
		s.flushShard(sh, &s.mergeSc, t)
	}
	evs := s.mergeAndFinalize(nil, nil, &s.mergeSc, t)
	s.updateGauges()
	return evs, nil
}

// Flush delivers every pending frame regardless of its window, each
// stamped at its own window expiry. Sessions and counters survive; only
// the dedup table drains. Call it at end of stream.
func (s *Server) Flush() ([]Event, error) {
	if !s.inUse.CompareAndSwap(false, true) {
		return nil, ErrConcurrentUse
	}
	defer s.inUse.Store(false)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		s.flushShard(sh, &s.mergeSc, drainLimitAll)
	}
	evs := s.mergeAndFinalize(nil, nil, &s.mergeSc, drainLimitAll)
	s.updateGauges()
	return evs, nil
}

// routeBatch is the serial front half of Ingest: it stamps each item with
// its clamped logical clock and global arrival index, classifies it, and
// splits the batch into lanes. Pass A scans joins first so that a device
// with a join ANYWHERE in the batch routes all its data slow (a join
// earlier in arrival order may replace the session a later frame needs);
// the same sweep migrates the device's already-open fast windows into the
// slow lane. Pass B then assigns data frames and bumps the per-uplink
// counters in arrival order.
func (s *Server) routeBatch(batch []Uplink) {
	if cap(s.route) < len(batch) {
		s.route = make([]routeInfo, len(batch))
	}
	s.route = s.route[:len(batch)]
	s.statelessRecs = s.statelessRecs[:0]
	s.slowItems = s.slowItems[:0]
	s.batchSlow = s.batchSlow[:0]

	// Pass A — clocks, arrival indexes, join classification.
	for i := range batch {
		u := &batch[i]
		t := u.TimeSec
		if t < s.clock {
			t = s.clock // logical time never runs backwards
		}
		s.clock = t
		ri := &s.route[i]
		*ri = routeInfo{t: t, seq: s.seq}
		s.seq++
		w := u.Payload
		if len(w) < 1 {
			ri.reason = ReasonMalformed
			continue
		}
		switch lorawan.MType(w[0] >> 5) {
		case lorawan.JoinRequest:
			if len(w) != 23 {
				ri.reason = ReasonMalformed
				continue
			}
			devEUI := lorawan.EUI(binary.LittleEndian.Uint64(w[9:17]))
			dev := s.devices[devEUI]
			if dev == nil {
				ri.reason = ReasonUnknownDevice
				continue
			}
			ri.class = icSlowJoin
			ri.dev = dev
			if !euiIn(s.batchSlow, devEUI) {
				s.batchSlow = append(s.batchSlow, devEUI)
			}
		case lorawan.UnconfirmedDataUp, lorawan.ConfirmedDataUp:
			if len(w) < 12 {
				ri.reason = ReasonMalformed
				continue
			}
			ri.class = icDataPend
		default:
			ri.reason = ReasonUnsupportedMType
		}
	}

	if len(s.batchSlow) > 0 {
		for _, eui := range s.batchSlow {
			s.migrateToSlow(eui)
		}
		// Migrated entries interleave with existing slow windows; seq order
		// is expiry order (clocks are prefix maxima).
		sort.Sort(pendBySeq(s.slow.pend))
		if cap(s.slowItems) < len(batch) {
			// A join in the batch drags its device's data to the slow lane
			// too; size for the worst case once instead of growing through
			// the small append sizes.
			s.slowItems = make([]int, 0, len(batch))
		}
	}

	// Pass B — lane assignment and per-uplink accounting.
	for i := range batch {
		u := &batch[i]
		ri := &s.route[i]
		s.nUplinks++
		s.met.onUplink()
		s.bumpGateway(u.GatewayID)
		s.chStat(u.Channel, u.SF).Uplinks++
		switch ri.class {
		case icDropped:
			s.statelessRecs = append(s.statelessRecs, immediateDropRec(u, ri, ri.reason))
		case icSlowJoin:
			s.slowItems = append(s.slowItems, i)
			s.met.onSlowRouted()
		case icDataPend:
			addr := lorawan.DevAddr(binary.LittleEndian.Uint32(u.Payload[1:5]))
			sess := s.sessions[addr]
			if sess == nil || euiIn(s.batchSlow, sess.devEUI) || s.slowDevs[sess.devEUI] > 0 {
				// Unknown address (the session may be created later in this
				// very batch) or session state in motion: decide serially.
				ri.class = icSlowData
				s.slowItems = append(s.slowItems, i)
				s.met.onSlowRouted()
				continue
			}
			ri.class = icFast
			ri.sess = sess
			ri.shard = int32(sess.shard)
		}
	}
}

// verifyItem runs one item's parallel-safe work: the frame hash, and the
// MIC check for lanes whose key material is already pinned (fast data
// against its session, joins against the device root key). Reads only
// immutable state; every mutation happens at commit or merge.
func (s *Server) verifyItem(u *Uplink, ri *routeInfo, sc *lorawan.Scratch) {
	ri.hash = fnv64a(u.Payload)
	switch ri.class {
	case icFast:
		hdr, ok := lorawan.ParseDataHeader(u.Payload)
		if !ok {
			ri.micOK = false
			return
		}
		ri.hdr = hdr
		ri.micOK = ri.sess.nwkKC.VerifyDataMIC(sc, ri.sess.devAddr, uint32(hdr.FCnt), true, u.Payload)
	case icSlowJoin:
		jr, err := lorawan.ParseJoinRequestCached(u.Payload, ri.dev.appKC, sc)
		ri.micOK = err == nil
		ri.join = jr
	}
}

// runInline is the serial execution path: verify and commit each item in
// arrival order on the calling goroutine. Zero goroutines, zero channels —
// the right shape for small batches and Workers=1.
func (s *Server) runInline(batch []Uplink) {
	sc := &s.commitScratch(1)[0]
	for i := range batch {
		ri := &s.route[i]
		if ri.class != icDropped {
			s.verifyItem(&batch[i], ri, sc)
		}
		if ri.class == icFast {
			s.commitFast(sc, batch, i)
		}
	}
	for _, sh := range s.shards {
		s.flushShard(sh, sc, s.clock)
	}
}

// runPipelined is the concurrent execution path: verify chunks fan out on
// the worker pool, and as each prefix of the batch completes (in arrival
// order), its fast items are dispatched through bounded queues to shard
// committers running concurrently. Each committer owns a fixed set of
// shards (shard mod C), so one shard's items arrive in arrival order and
// commit without cross-shard coordination; back-pressure from a hot shard
// throttles verify instead of buffering the batch.
func (s *Server) runPipelined(batch []Uplink, workers int) {
	ncommit := s.nshards
	if ncommit > workers {
		ncommit = workers
	}
	queues := make([]chan int, ncommit)
	for c := range queues {
		queues[c] = make(chan int, committerQueueCap)
	}
	for len(s.verifySc) < workers {
		s.verifySc = append(s.verifySc, lorawan.Scratch{})
	}
	commitSc := s.commitScratch(ncommit)

	var wg sync.WaitGroup
	for c := 0; c < ncommit; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sc := &commitSc[c]
			for i := range queues[c] {
				s.commitFast(sc, batch, i)
			}
			for sh := c; sh < s.nshards; sh += ncommit {
				s.flushShard(s.shards[sh], sc, s.clock)
			}
		}(c)
	}

	parallel.ForEachChunksOrdered(workers, len(batch), pipelineChunk,
		func(worker, lo, hi int) {
			sc := &s.verifySc[worker]
			for i := lo; i < hi; i++ {
				ri := &s.route[i]
				if ri.class != icDropped {
					s.verifyItem(&batch[i], ri, sc)
				}
			}
		},
		func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ri := &s.route[i]
				if ri.class == icFast {
					queues[int(ri.shard)%ncommit] <- i
				}
			}
		})
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
}

// commitScratch returns at least n committer scratch slots, sized lazily:
// serial servers never pay for scratch a pipelined width would need.
func (s *Server) commitScratch(n int) []lorawan.Scratch {
	if len(s.commitSc) < n {
		s.commitSc = make([]lorawan.Scratch, n)
	}
	return s.commitSc
}

// chStat returns the (channel, SF) tally row, creating it on first sight.
// The pointer aims into s.chStats' backing array: bump it immediately and
// don't hold it across another chStat call, which may grow the slice.
func (s *Server) chStat(ch, sf int) *shardStat {
	for i := range s.chStats {
		if c := &s.chStats[i]; c.ch == ch && c.sf == sf {
			return &c.shardStat
		}
	}
	s.chStats = append(s.chStats, chCounter{ch: ch, sf: sf})
	return &s.chStats[len(s.chStats)-1].shardStat
}

// bumpGateway counts one uplink against its gateway.
func (s *Server) bumpGateway(id string) {
	for i := range s.gateways {
		if s.gateways[i].id == id {
			s.gateways[i].n++
			return
		}
	}
	s.gateways = append(s.gateways, gwCounter{id: id, n: 1})
}

// bumpDropReason counts one drop against its reason.
func (s *Server) bumpDropReason(reason string) {
	for i := range s.dropReason {
		if s.dropReason[i].reason == reason {
			s.dropReason[i].n++
			return
		}
	}
	s.dropReason = append(s.dropReason, reasonCounter{reason: reason, n: 1})
}

// euiIn reports whether e appears in the (short, per-batch) list l.
func euiIn(l []lorawan.EUI, e lorawan.EUI) bool {
	for _, x := range l {
		if x == e {
			return true
		}
	}
	return false
}

// dedupTotals sums the pending-window count and charged bytes across every
// lane.
func (s *Server) dedupTotals() (int, int64) {
	n, b := len(s.slow.pend), s.slow.bytes
	for _, sh := range s.shards {
		n += len(sh.pend)
		b += sh.bytes
	}
	return n, b
}

func (s *Server) updateGauges() {
	s.met.setSessions(len(s.sessions))
	n, b := s.dedupTotals()
	s.met.setDedup(n, b)
}

// ShardStats is one (channel, SF) row of the ops surface.
type ShardStats struct {
	Channel   int    `json:"channel"`
	SF        int    `json:"sf"`
	Uplinks   uint64 `json:"uplinks"`
	Delivered uint64 `json:"delivered"`
}

// Stats is the /netserver ops snapshot.
type Stats struct {
	Devices       int               `json:"devices"`
	Sessions      int               `json:"sessions"`
	Uplinks       uint64            `json:"uplinks"`
	Joins         uint64            `json:"joins"`
	Delivered     uint64            `json:"delivered"`
	DupSuppressed uint64            `json:"dup_suppressed"`
	Dropped       uint64            `json:"dropped"`
	QuotaDropped  uint64            `json:"quota_dropped"`
	DedupPending  int               `json:"dedup_pending"`
	DedupBytes    int64             `json:"dedup_bytes"`
	StateShards   int               `json:"state_shards"`
	Shards        []ShardStats      `json:"shards"`
	Gateways      map[string]uint64 `json:"gateways"`
	DropReasons   map[string]uint64 `json:"drop_reasons,omitempty"`
}

// Stats snapshots the server. Safe to call concurrently with Ingest (it
// waits for the in-flight batch).
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	pendN, pendB := s.dedupTotals()
	st := Stats{
		Devices:       len(s.devices),
		Sessions:      len(s.sessions),
		Uplinks:       s.nUplinks,
		Joins:         s.nJoins,
		Delivered:     s.nDelivered,
		DupSuppressed: s.nDups,
		Dropped:       s.nDrops,
		QuotaDropped:  s.nQuota,
		DedupPending:  pendN,
		DedupBytes:    pendB,
		StateShards:   s.nshards,
		Gateways:      make(map[string]uint64, len(s.gateways)),
		DropReasons:   make(map[string]uint64, len(s.dropReason)),
	}
	for _, g := range s.gateways {
		st.Gateways[g.id] = g.n
	}
	for _, r := range s.dropReason {
		st.DropReasons[r.reason] = r.n
	}
	if len(s.chStats) > 0 {
		st.Shards = make([]ShardStats, 0, len(s.chStats))
	}
	for _, c := range s.chStats {
		st.Shards = append(st.Shards, ShardStats{Channel: c.ch, SF: c.sf, Uplinks: c.Uplinks, Delivered: c.Delivered})
	}
	sort.Sort(shardStatsOrder(st.Shards))
	return st
}

// shardStatsOrder sorts channel/SF rows for stable reporting.
type shardStatsOrder []ShardStats

func (s shardStatsOrder) Len() int      { return len(s) }
func (s shardStatsOrder) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s shardStatsOrder) Less(i, j int) bool {
	if s[i].Channel != s[j].Channel {
		return s[i].Channel < s[j].Channel
	}
	return s[i].SF < s[j].SF
}
