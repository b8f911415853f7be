package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"tnb/internal/fleet"
	"tnb/internal/lorawan"
	"tnb/internal/metrics"
	"tnb/internal/netserver"
	"tnb/internal/obs"
	"tnb/internal/tracestore"
)

// fleetSize shapes the ns-fleet workload: nodes each sending packets data
// uplinks over duration seconds, heard by 2 gateways on channels {0,1,2}
// at SFs {7,8,9}, with 60‰ of copies corrupted in flight.
type fleetSize struct {
	nodes, packets int
	duration       float64
}

var nsFleet = fleetSize{nodes: 20000, packets: 8, duration: 600}

// batchSize is the uplink batch handed to each netserver.Ingest call, the
// fleet drivers' default.
const batchSize = fleet.DefaultBatch

// frameKey names a data frame as netserver events do.
type frameKey struct {
	addr string
	fcnt int
}

// oracle is the device side of a fleet, rebuilt from what the devices
// themselves see: each device learns its session keys from the join
// exchange (its own join request, the join accept the netserver returned),
// and with them the oracle tells intact uplink copies from corrupted ones
// and knows what every data frame carries.
type oracle struct {
	frames    map[frameKey][]byte // plaintext of every frame with an intact copy
	firstJoin []bool              // per join copy: the first intact copy of its request
	firstData []bool              // per traffic copy: the first intact copy of its frame
	keyOf     map[string]frameKey // intact data copy wire bytes → frame
}

func newOracle(devs []netserver.Device, joins []netserver.Uplink, joinEvs []netserver.Event, traffic []netserver.Uplink) (*oracle, error) {
	appKey := map[lorawan.EUI][]byte{}
	byName := map[string]lorawan.EUI{}
	for _, d := range devs {
		appKey[d.DevEUI] = d.AppKey
		byName[d.DevEUI.String()] = d.DevEUI
	}
	o := &oracle{
		frames:    map[frameKey][]byte{},
		firstJoin: make([]bool, len(joins)),
		firstData: make([]bool, len(traffic)),
		keyOf:     map[string]frameKey{},
	}
	nonce := map[lorawan.EUI]uint16{}
	for i, u := range joins {
		// A LoRaWAN 1.0 join request is MHDR | AppEUI | DevEUI | DevNonce |
		// MIC, little-endian; the DevEUI picks the key that verifies it.
		if len(u.Payload) < 17 {
			continue
		}
		key, ok := appKey[lorawan.EUI(binary.LittleEndian.Uint64(u.Payload[9:17]))]
		if !ok {
			continue
		}
		jr, err := lorawan.ParseJoinRequest(u.Payload, key)
		if err != nil {
			continue // corrupted in flight
		}
		if _, dup := nonce[jr.DevEUI]; !dup {
			nonce[jr.DevEUI] = jr.DevNonce
			o.firstJoin[i] = true
		}
	}
	type keys struct{ nwk, app []byte }
	sessions := map[lorawan.DevAddr]keys{}
	for _, ev := range joinEvs {
		if ev.Type != "join" {
			continue
		}
		eui := byName[ev.DevEUI]
		dn, ok := nonce[eui]
		if !ok {
			return nil, fmt.Errorf("join event for %s, which sent no intact join request", ev.DevEUI)
		}
		acc, err := lorawan.ParseJoinAccept(ev.JoinAccept, appKey[eui])
		if err != nil {
			return nil, fmt.Errorf("device %s cannot parse its join accept: %w", ev.DevEUI, err)
		}
		nwk, app, err := lorawan.DeriveSessionKeys(appKey[eui], acc.AppNonce, acc.NetID, dn)
		if err != nil {
			return nil, err
		}
		sessions[acc.DevAddr] = keys{nwk, app}
	}
	for i, u := range traffic {
		h, ok := lorawan.ParseDataHeader(u.Payload)
		if !ok {
			continue
		}
		s, ok := sessions[h.DevAddr]
		if !ok {
			continue
		}
		f, err := lorawan.ParseDataFrame(u.Payload, s.nwk, s.app)
		if err != nil {
			continue // corrupted in flight
		}
		k := frameKey{h.DevAddr.String(), int(f.FCnt)}
		o.keyOf[string(u.Payload)] = k
		if _, seen := o.frames[k]; !seen {
			o.frames[k] = f.FRMPayload
			o.firstData[i] = true
		}
	}
	return o, nil
}

// check scores a run's events: every delivery must carry an intact frame's
// plaintext under its DevAddr and FCnt, at most once.
func (o *oracle) check(evs []netserver.Event) (delivered map[frameKey]bool, unmatched int) {
	delivered = make(map[frameKey]bool, len(o.frames))
	for _, ev := range evs {
		if ev.Type != "delivery" {
			continue
		}
		k := frameKey{ev.DevAddr, ev.FCnt}
		plain, ok := o.frames[k]
		if !ok || delivered[k] || !bytes.Equal(plain, ev.Payload) {
			unmatched++
			continue
		}
		delivered[k] = true
	}
	return delivered, unmatched
}

// scoreFrames fills the contract's accounting from one run's events.
func (rep *report) scoreFrames(o *oracle, evs []netserver.Event) map[frameKey]bool {
	delivered, unmatched := o.check(evs)
	rep.attempted = len(o.frames)
	rep.delivered = len(delivered)
	rep.failed = len(o.frames) - len(delivered) + unmatched
	if unmatched > 0 {
		rep.problem("%d deliveries match no intact sent frame (or repeat one)", unmatched)
	}
	rep.detail["unmatched"] = unmatched
	return delivered
}

// eventDigest hashes an event stream field by field, so any change of
// content or order changes the digest.
func eventDigest(evs []netserver.Event) string {
	h := sha256.New()
	var b []byte
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	num := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	for _, ev := range evs {
		b = b[:0]
		str(ev.Type)
		num(ev.TimeSec)
		str(ev.DevEUI)
		str(ev.DevAddr)
		b = binary.AppendVarint(b, int64(ev.FCnt))
		b = binary.AppendVarint(b, int64(ev.FPort))
		str(string(ev.Payload))
		b = binary.AppendVarint(b, int64(ev.Channel))
		b = binary.AppendVarint(b, int64(ev.SF))
		str(ev.Gateway)
		num(ev.SNRdB)
		b = binary.AppendVarint(b, int64(ev.Copies))
		b = binary.AppendUvarint(b, uint64(len(ev.Gateways)))
		for _, g := range ev.Gateways {
			str(g)
		}
		str(ev.Tenant)
		str(string(ev.JoinAccept))
		str(ev.Reason)
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fleetInput is a fleet's cached uplinks: the join phase and the traffic it
// enables. A fresh netserver assigns the same DevAddrs and keys, so the
// cached traffic is valid for every repetition.
type fleetInput struct {
	cfg          netserver.Config
	joins        []netserver.Uplink
	traffic      []netserver.Uplink
	trafficStart float64
	joinEvs      []netserver.Event
	sent         int // data transmissions: joined nodes × packets each
	or           *oracle
}

func buildFleet(cfg fleet.Config) (*fleetInput, error) {
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	in := &fleetInput{cfg: netserver.Config{Workers: 1, Devices: f.Devices()}, trafficStart: f.TrafficStartSec()}
	if in.joins, err = f.JoinRequests(); err != nil {
		return nil, err
	}
	ns, err := netserver.New(in.cfg)
	if err != nil {
		return nil, err
	}
	if in.joinEvs, err = in.joinPhase(ns); err != nil {
		return nil, err
	}
	joined, err := f.ApplyJoinAccepts(in.joinEvs)
	if err != nil {
		return nil, err
	}
	in.sent = joined * cfg.PacketsPerNode
	in.traffic, err = f.Traffic()
	return in, err
}

// joinPhase ingests the join requests into ns in batches and advances its
// clock past the join windows, as the fleet drivers do, returning the
// events.
func (in *fleetInput) joinPhase(ns *netserver.Server) ([]netserver.Event, error) {
	var out []netserver.Event
	for lo := 0; lo < len(in.joins); lo += batchSize {
		evs, err := ns.Ingest(in.joins[lo:min(lo+batchSize, len(in.joins))])
		if err != nil {
			return nil, err
		}
		out = append(out, evs...)
	}
	evs, err := ns.AdvanceTo(in.trafficStart)
	return append(out, evs...), err
}

// nsRun is one drive of a fresh netserver through the fleet's cached
// uplinks.
type nsRun struct {
	evs              []netserver.Event
	lat              []float64 // per frame: its first intact copy's Ingest call
	join, data, flsh float64   // wall seconds in each phase's netserver calls
	dedupPeak        int64     // traced only
	stats            netserver.Stats
}

// drive ingests the join phase (batches, then AdvanceTo past the join
// windows), the traffic (batches) and a final Flush into ns. r's slices are
// reused, so the harness allocates little inside the timed section.
func (in *fleetInput) drive(ns *netserver.Server, r *nsRun, traced bool) error {
	r.evs, r.lat = r.evs[:0], r.lat[:0]
	r.join, r.data, r.flsh, r.dedupPeak = 0, 0, 0, 0
	ingest := func(ups []netserver.Uplink, first []bool, acc *float64) error {
		for lo := 0; lo < len(ups); lo += batchSize {
			hi := min(lo+batchSize, len(ups))
			t0 := time.Now()
			evs, err := ns.Ingest(ups[lo:hi])
			d := time.Since(t0).Seconds()
			if err != nil {
				return err
			}
			*acc += d
			r.evs = append(r.evs, evs...)
			for _, f := range first[lo:hi] {
				if f {
					r.lat = append(r.lat, d)
				}
			}
			if traced {
				r.dedupPeak = max(r.dedupPeak, ns.Stats().DedupBytes)
			}
		}
		return nil
	}
	call := func(f func() ([]netserver.Event, error), acc *float64) error {
		t0 := time.Now()
		evs, err := f()
		*acc += time.Since(t0).Seconds()
		r.evs = append(r.evs, evs...)
		return err
	}
	if err := ingest(in.joins, in.or.firstJoin, &r.join); err != nil {
		return err
	}
	if err := call(func() ([]netserver.Event, error) { return ns.AdvanceTo(in.trafficStart) }, &r.join); err != nil {
		return err
	}
	if err := ingest(in.traffic, in.or.firstData, &r.data); err != nil {
		return err
	}
	if err := call(ns.Flush, &r.flsh); err != nil {
		return err
	}
	r.stats = ns.Stats()
	return nil
}

// countingSpill counts the records a tracer hands the trace store.
type countingSpill struct {
	next obs.Spill
	n    int
}

func (c *countingSpill) Append(line []byte, m obs.RecordMeta) {
	c.n++
	c.next.Append(line, m)
}

// tracedNS is a netserver wired as `tnbnet -trace-store` wires it: its
// tracer spills into a trace store in a scratch directory, and its
// instruments record into a private registry.
type tracedNS struct {
	dir   string
	store *tracestore.Store
	spill *countingSpill
}

func openTraced(o options, cfg *netserver.Config) (*tracedNS, error) {
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.tmp, "tracestore-")
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	store, err := tracestore.Open(tracestore.Options{Dir: dir, Metrics: tracestore.NewMetrics(reg)})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	t := &tracedNS{dir: dir, store: store, spill: &countingSpill{next: store}}
	cfg.Tracer = obs.New(obs.Options{Spill: t.spill})
	cfg.Metrics = netserver.NewMetrics(reg)
	return t, nil
}

// close seals the store, returning how long that took, and deletes it.
func (t *tracedNS) close() (float64, error) {
	t0 := time.Now()
	err := t.store.Close()
	d := time.Since(t0).Seconds()
	if rmErr := os.RemoveAll(t.dir); err == nil {
		err = rmErr
	}
	return d, err
}

func runFleet(o options, sz fleetSize) (*report, error) {
	in, setup, err := setUp(func() (*fleetInput, func(), error) {
		in, err := buildFleet(fleet.Config{
			Seed: o.seed, Nodes: sz.nodes, Gateways: 2,
			Channels: []int{0, 1, 2}, SFs: []int{7, 8, 9},
			PacketsPerNode: sz.packets, DurationSec: sz.duration, CorruptPermille: 60,
		})
		return in, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	if in.or, err = newOracle(in.cfg.Devices, in.joins, in.joinEvs, in.traffic); err != nil {
		return nil, err
	}
	rep := &report{detail: map[string]any{}}
	frames := len(in.joins) + len(in.traffic)
	var digest string
	var r nsRun
	// one is a repetition on a fresh netserver; tr, when non-nil, is
	// attached to it and closed afterwards.
	one := func(traced bool) (repStats, *tracedNS, error) {
		cfg := in.cfg
		var tr *tracedNS
		if traced {
			var err error
			if tr, err = openTraced(o, &cfg); err != nil {
				return repStats{}, nil, err
			}
		}
		ns, err := netserver.New(cfg)
		if err != nil {
			return repStats{}, tr, err
		}
		runtime.GC()
		var sec section
		sec.start()
		err = in.drive(ns, &r, traced)
		sec.stop()
		if err != nil {
			return repStats{}, tr, err
		}
		if d := eventDigest(r.evs); digest == "" {
			digest = d
			rep.scoreFrames(in.or, r.evs)
		} else if d != digest {
			rep.problem("event stream digest %s differs from the first repetition's %s (traced=%v)", d, digest, traced)
		}
		return newRepStats(frames, sec.cpu, sec.alloc, r.lat), tr, nil
	}

	var plain, traced []repStats
	layer := map[string]float64{}
	var join, data, flsh, closeS float64
	n, err := reps(o.seconds, func() error {
		s, _, err := one(false)
		if err != nil {
			return err
		}
		plain = append(plain, s)
		if !o.trace {
			return nil
		}
		s, tr, err := one(true)
		var c float64
		if tr != nil {
			var cerr error
			c, cerr = tr.close()
			if err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
		traced = append(traced, s)
		join, data, flsh, closeS = join+r.join, data+r.data, flsh+r.flsh, closeS+c
		if len(traced) == 1 {
			layer["netserver.delivered"] = float64(r.stats.Delivered)
			layer["netserver.dups"] = float64(r.stats.DupSuppressed)
			layer["netserver.drops"] = float64(r.stats.Dropped)
			layer["netserver.dedup_bytes_peak"] = float64(r.dedupPeak)
			layer["tracestore.records"] = float64(tr.spill.n)
			layer["tracestore.dropped"] = float64(tr.store.Dropped())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.detail["reps"] = n
	rep.detail["digest"] = digest
	rep.detail["latency_samples_per_rep"] = len(r.lat)
	if !o.trace {
		rep.metrics = endToEndMetrics(setup, rep.prr(), plain, true)
		return rep, nil
	}
	ns := join + data + flsh
	layer["traced.overhead"] = endToEndMetrics(0, 0, plain, true)["frames_per_cpu_s"] / endToEndMetrics(0, 0, traced, true)["frames_per_cpu_s"]
	layer["netserver.join.share"] = join / ns
	layer["netserver.data.share"] = data / ns
	layer["netserver.flush.share"] = flsh / ns
	layer["tracestore.close.share"] = closeS / (ns + closeS)
	zeroLayers(layer)
	rep.metrics = layer
	rep.detail["seconds_abs"] = map[string]float64{"join": join, "data": data, "flush": flsh, "tracestore_close": closeS}
	return rep, nil
}
