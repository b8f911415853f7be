package netserver

import (
	"encoding/binary"
	"math"
	"sort"

	"tnb/internal/lorawan"
	"tnb/internal/obs"
)

// The deterministic cross-shard merge.
//
// The serial engine emitted events in a single pass: before each uplink it
// closed every dedup window the uplink's (prefix-max) logical clock had
// expired, then committed the uplink itself. That order is exactly the
// ascending order of a sort key
//
//	windowed close  → (expiry, 0, entry seq)
//	immediate event → (clock,  1, item seq)
//
// because clocks are prefix maxima (nondecreasing in seq), window expiries
// are clock + constant (so also nondecreasing in seq), and an entry closes
// strictly before the first item whose clock reaches its expiry. Sequence
// numbers are globally unique, so keys are too, and the order is total.
//
// The sharded engine therefore doesn't need to commit serially: each shard
// produces its records in ascending key order on its own goroutine, the
// stateless route drops are keyed as they arrive, and this file merges the
// streams by picking ascending keys — reproducing the serial emission
// order bit for bit at every shard count and worker width.
//
// The slow lane cannot be pre-merged: its steps (joins, unknown-address
// data) mutate global state that later slow steps observe. It is executed
// lazily *during* the merge, each step at its key position, which is
// exactly the point the serial engine would have executed it.

// itemClass is the routing decision for one batch item.
type itemClass uint8

const (
	// icDropped is a stateless drop decided at route time (malformed,
	// unknown device, unsupported MType); routeInfo.reason holds why.
	icDropped itemClass = iota
	// icFast is a data frame for a known, quiescent device: verified in
	// parallel, committed on its device's shard.
	icFast
	// icSlowJoin is a syntactically valid join request for a provisioned
	// device: MIC-checked in parallel, executed serially at merge.
	icSlowJoin
	// icSlowData is a data frame whose session state is in motion (unknown
	// address, or a device with a join in flight): executed serially at
	// merge against the then-current session table.
	icSlowData
	// icDataPend is routeBatch-internal: a well-formed data frame whose
	// lane has not been chosen yet.
	icDataPend
)

// routeInfo is the per-item routing state threaded from the serial route
// pass through parallel verify to commit.
type routeInfo struct {
	class  itemClass
	shard  int32
	micOK  bool
	reason string  // icDropped only
	t      float64 // clamped (prefix-max) logical clock
	seq    uint64  // global arrival index
	hash   uint64  // fnv-1a of the frame bytes (set by verify)
	sess   *session
	dev    *deviceState
	hdr    lorawan.DataHeader
	join   lorawan.JoinRequestFrame
}

// recKey orders merge records; see the file comment for why ascending key
// order equals the serial engine's emission order.
type recKey struct {
	t         float64
	immediate bool
	seq       uint64
}

func (a recKey) less(b recKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.immediate != b.immediate {
		return !a.immediate // windowed closes land before same-time items
	}
	return a.seq < b.seq
}

// rec is one pre-finalized merge record: the event as the shard built it,
// plus what the serial finalizer still owes it (quota charge for
// deliveries, counters and tracing for drops).
type rec struct {
	t         float64
	immediate bool
	seq       uint64
	deliver   bool
	drop      bool
	sess      *session
	ev        Event
}

func (r *rec) key() recKey { return recKey{t: r.t, immediate: r.immediate, seq: r.seq} }

// recsByKey sorts merge records by ascending key without reflection
// (sort.Slice builds a swapper per call on the merge hot path).
type recsByKey []rec

func (r recsByKey) Len() int           { return len(r) }
func (r recsByKey) Less(i, j int) bool { return r[i].key().less(r[j].key()) }
func (r recsByKey) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }

// immediateDropRec builds the record of a non-windowed drop. Like the
// serial engine's, the event carries only the reception metadata — no
// device identity, no copy accounting.
func immediateDropRec(u *Uplink, ri *routeInfo, reason string) rec {
	return rec{
		t: ri.t, immediate: true, seq: ri.seq, drop: true,
		ev: Event{
			Type:    "drop",
			TimeSec: ri.t,
			Channel: u.Channel, SF: u.SF,
			Gateway: u.GatewayID, SNRdB: u.SNRdB,
			Reason: reason,
		},
	}
}

// finalizeRec applies the serial tail of one record — quota, counters,
// tracing — and appends its event. Must be called in ascending key order:
// the quota buckets are global, and charging them in event order is what
// keeps their token state identical to the serial engine's.
func (s *Server) finalizeRec(evs []Event, r *rec) []Event {
	switch {
	case r.deliver:
		tenant := r.sess.tenant
		if !s.buckets[tenant].allow(r.t) {
			s.nQuota++
			s.met.onQuotaDropped()
			s.nDrops++
			s.met.onDropped()
			s.bumpDropReason(ReasonQuotaExceeded)
			ev := r.ev
			ev.Type, ev.Reason = "drop", ReasonQuotaExceeded
			ev.FCnt, ev.FPort, ev.Payload = 0, 0, nil
			s.traceDrop(ev)
			return append(evs, ev)
		}
		s.nDelivered++
		s.met.onDelivered()
		s.chStat(r.ev.Channel, r.ev.SF).Delivered++
		return append(evs, r.ev)
	case r.drop:
		s.nDrops++
		s.met.onDropped()
		s.bumpDropReason(r.ev.Reason)
		s.traceDrop(r.ev)
		return append(evs, r.ev)
	default: // join: counted by executeJoin at its key position
		return append(evs, r.ev)
	}
}

func (s *Server) finalizeImmediate(evs []Event, u *Uplink, ri *routeInfo, reason string) []Event {
	r := immediateDropRec(u, ri, reason)
	return s.finalizeRec(evs, &r)
}

// mergeAndFinalize is the serial back half of Ingest/AdvanceTo/Flush: it
// gathers the stateless and per-shard record streams, sorts them by key
// (each stream is already ascending; the sort just interleaves), and walks
// the global key order, executing slow-lane steps at their key positions
// and finalizing everything into the returned event slice. Slow windows
// close only up to the `limit` clock (the batch's final clock for Ingest,
// t for AdvanceTo, +Inf for Flush).
func (s *Server) mergeAndFinalize(evs []Event, batch []Uplink, sc *lorawan.Scratch, limit float64) []Event {
	nrec := len(s.statelessRecs)
	for _, sh := range s.shards {
		nrec += len(sh.recs)
	}
	if cap(s.mergeRecs) < nrec {
		s.mergeRecs = make([]rec, 0, nrec)
	}
	recs := s.mergeRecs[:0]
	recs = append(recs, s.statelessRecs...)
	for _, sh := range s.shards {
		recs = append(recs, sh.recs...)
	}
	sort.Sort(recsByKey(recs))
	if evs == nil {
		// One sized slab instead of append growth: every record and every
		// slow window already expired at entry emits exactly one event, and
		// each slow batch item at most one. (A window opened by a slow item
		// can additionally close within this call; append absorbs that
		// spill.)
		nClose := 0
		for _, e := range s.slow.pend {
			if e.expiry > limit {
				break
			}
			nClose++
		}
		if need := nrec + len(s.slowItems) + nClose; need > 0 {
			evs = make([]Event, 0, need)
		}
	}

	ri, si := 0, 0
	for {
		// Pick the smallest key among the sorted records, the slow lane's
		// next expiring window, and the slow lane's next batch item.
		const (
			srcNone = iota
			srcRec
			srcSlowClose
			srcSlowItem
		)
		src := srcNone
		var best recKey
		if ri < len(recs) {
			src, best = srcRec, recs[ri].key()
		}
		if len(s.slow.pend) > 0 && s.slow.pend[0].expiry <= limit {
			e := s.slow.pend[0]
			if k := (recKey{t: e.expiry, seq: e.seq}); src == srcNone || k.less(best) {
				src, best = srcSlowClose, k
			}
		}
		if si < len(s.slowItems) {
			it := &s.route[s.slowItems[si]]
			if k := (recKey{t: it.t, immediate: true, seq: it.seq}); src == srcNone || k.less(best) {
				src, best = srcSlowItem, k
			}
		}
		switch src {
		case srcNone:
			s.statelessRecs = s.statelessRecs[:0]
			s.slowItems = s.slowItems[:0]
			s.mergeRecs = recs[:0]
			var dups uint64
			for _, sh := range s.shards {
				dups += sh.dups
				sh.dups = 0
				sh.recs = sh.recs[:0]
			}
			if dups > 0 {
				s.nDups += dups
				s.met.onDupsSuppressed(dups)
			}
			return evs
		case srcRec:
			evs = s.finalizeRec(evs, &recs[ri])
			ri++
		case srcSlowClose:
			evs = s.closeSlowHead(evs, sc)
		case srcSlowItem:
			evs = s.execSlowItem(evs, batch, s.slowItems[si], sc)
			si++
		}
	}
}

// closeSlowHead closes the slow lane's next expiring window: joins execute
// (the only place the session table mutates), data windows deliver or drop
// exactly as fast-lane closes do.
func (s *Server) closeSlowHead(evs []Event, sc *lorawan.Scratch) []Event {
	e := s.slow.popHead()
	if e.isJoin {
		ev := s.executeJoin(e, sc)
		s.slowDevDone(e.dev.dev.DevEUI)
		recyclePend(e)
		return append(evs, ev)
	}
	r := s.closeDataEntry(sc, e)
	s.slowDevDone(e.sess.devEUI)
	recyclePend(e)
	return s.finalizeRec(evs, &r)
}

// slowDevDone releases one live slow-lane window of the device; at zero the
// device's new traffic routes fast again.
func (s *Server) slowDevDone(eui lorawan.EUI) {
	if n := s.slowDevs[eui]; n <= 1 {
		delete(s.slowDevs, eui)
	} else {
		s.slowDevs[eui] = n - 1
	}
}

// execSlowItem runs one slow-lane batch item at its key position, against
// the session table as this point in the global order sees it.
func (s *Server) execSlowItem(evs []Event, batch []Uplink, i int, sc *lorawan.Scratch) []Event {
	ri := &s.route[i]
	u := &batch[i]
	switch ri.class {
	case icSlowJoin:
		if !ri.micOK {
			return s.finalizeImmediate(evs, u, ri, ReasonBadMIC)
		}
		key := dedupKey{join: true, id: uint64(ri.join.DevEUI), ctr: uint32(ri.join.DevNonce), hash: ri.hash}
		if e := s.slow.byKey[key]; e != nil {
			s.nDups++
			s.met.onDupSuppressed()
			s.slow.bytes += mergeCopyInto(e, u)
			return evs
		}
		if ri.dev.nonces.contains(ri.join.DevNonce) {
			return s.finalizeImmediate(evs, u, ri, ReasonReplayedDevNonce)
		}
		e := newPendEntry()
		e.key = key
		e.isJoin = true
		e.dev = ri.dev
		e.devNonce = ri.join.DevNonce
		openEntry(&s.slow, e, u, ri, s.window)
		s.slowDevs[ri.dev.dev.DevEUI]++
		return evs

	case icSlowData:
		w := u.Payload
		addr := lorawan.DevAddr(binary.LittleEndian.Uint32(w[1:5]))
		sess := s.sessions[addr]
		if sess == nil {
			return s.finalizeImmediate(evs, u, ri, ReasonUnknownDevAddr)
		}
		hdr, ok := lorawan.ParseDataHeader(w)
		if !ok || !sess.nwkKC.VerifyDataMIC(sc, addr, uint32(hdr.FCnt), true, w) {
			return s.finalizeImmediate(evs, u, ri, ReasonBadMIC)
		}
		key := dedupKey{id: uint64(addr), ctr: uint32(hdr.FCnt), hash: ri.hash}
		if e := s.slow.byKey[key]; e != nil {
			s.nDups++
			s.met.onDupSuppressed()
			s.slow.bytes += mergeCopyInto(e, u)
			return evs
		}
		if int64(hdr.FCnt) <= sess.lastFCnt {
			return s.finalizeImmediate(evs, u, ri, ReasonReplayedFCnt)
		}
		e := newPendEntry()
		e.key = key
		e.sess = sess
		e.fcnt = hdr.FCnt
		e.fport, e.hasPort = hdr.FPort, hdr.HasPort
		e.enc = append(e.enc[:0], w[hdr.PayloadOff:len(w)-4]...)
		openEntry(&s.slow, e, u, ri, s.window)
		s.slowDevs[sess.devEUI]++
		return evs
	}
	return evs
}

// executeJoin activates a session at window expiry: records the DevNonce,
// assigns the deterministic DevAddr/AppNonce pair, derives the session keys
// (and their cached ciphers) and builds the JoinAccept downlink. Serial
// only — this is the one mutation point of the session table.
func (s *Server) executeJoin(e *pendEntry, sc *lorawan.Scratch) Event {
	at := e.expiry
	sort.Strings(e.gateways)
	dev := e.dev
	if dev.nonces.add(e.devNonce) {
		s.met.onNonceEvicted()
	}
	if dev.sess != nil {
		delete(s.sessions, dev.sess.devAddr) // rejoin replaces the session
	}
	s.joinCount++
	addr := lorawan.DevAddr(DevAddrBase | (s.joinCount & 0x00FFFFFF))
	appNonce := s.joinCount & 0x00FFFFFF

	nwk, app := lorawan.DeriveSessionKeysScratch(dev.appKC, sc, appNonce, NetID, e.devNonce)
	nwkKC, _ := lorawan.NewKeyCipher(nwk[:]) // 16 bytes by construction
	appKC, _ := lorawan.NewKeyCipher(app[:])
	sess := &session{
		devEUI: dev.dev.DevEUI, devAddr: addr, tenant: dev.dev.Tenant,
		devEUIStr: dev.dev.DevEUI.String(), devAddrStr: addr.String(),
		nwkKC: nwkKC, appKC: appKC, lastFCnt: -1,
		shard: s.shardOf(dev.dev.DevEUI),
	}
	dev.sess = sess
	s.sessions[addr] = sess
	s.nJoins++
	s.met.onJoin()
	s.chStat(e.channel, e.sf).Delivered++

	accept := &lorawan.JoinAcceptFrame{AppNonce: appNonce, NetID: NetID, DevAddr: addr, RxDelay: 1}
	wire, err := accept.MarshalScratch(dev.appKC, sc)
	if err != nil {
		wire = nil
	}
	return Event{
		Type:    "join",
		TimeSec: at,
		DevEUI:  sess.devEUIStr,
		DevAddr: sess.devAddrStr,
		Channel: e.channel, SF: e.sf,
		Gateway: e.bestGW, SNRdB: e.bestSNR,
		Copies: e.copies, Gateways: e.gateways,
		Tenant:     dev.dev.Tenant,
		JoinAccept: wire,
	}
}

// traceDrop mirrors one drop event into the trace stream. Serial (merge
// order), so record order is identical at every worker width and shard
// count.
func (s *Server) traceDrop(ev Event) {
	if s.cfg.Tracer == nil {
		return // OnNet would no-op, but the Origin below allocates
	}
	s.cfg.Tracer.OnNet(obs.NetEvent{
		Event:   obs.NetDrop,
		Reason:  ev.Reason,
		TimeSec: ev.TimeSec,
		DevEUI:  ev.DevEUI,
		DevAddr: ev.DevAddr,
		Origin:  &obs.Origin{Gateway: ev.Gateway, Channel: ev.Channel, SF: ev.SF},
	})
}

// drainLimitAll is the Flush() close limit: every window expires.
var drainLimitAll = math.Inf(1)
