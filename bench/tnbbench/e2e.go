package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"tnb/internal/fleet"
	"tnb/internal/gateway"
	"tnb/internal/lora"
	"tnb/internal/metrics"
	"tnb/internal/netserver"
	"tnb/internal/stagegraph"
	"tnb/internal/stream"
	"tnb/internal/trace"
)

// e2eSize shapes the e2e-gateway workload: a fleet on channel 0 at SF 8
// heard by 2 gateways, each node sending packets uplinks, with as many
// nodes as make rate transmissions per second over a traffic span that
// fills the measured section.
type e2eSize struct {
	rate    float64
	packets int
}

var e2eGateway = e2eSize{rate: 20, packets: 3}

const (
	// e2eOSF is the oversampling tnbnet -phy renders at.
	e2eOSF = 2
	// sendPeriod is the open loop's tick: each connection gets one chunk of
	// this much signal per period, on a schedule that never waits for the
	// server.
	sendPeriod = 10 * time.Millisecond
	// e2eTail is the part of the measured section after the traffic span:
	// the second of trailing signal each render adds, and the decode of the
	// last window after the half-close.
	e2eTail = 3.0
)

// e2eInput is everything built before the session: the fleet's uplinks,
// each gateway's receptions rendered to IQ and pre-encoded to the int16
// wire format, and the loopback gateway servers.
type e2eInput struct {
	p       lora.Params
	fleet   *fleetInput
	wire    [2][]byte
	due     [2]map[string]time.Duration // copy bytes → when its last sample is sent, from the session start
	servers [2]*gwServer
}

func buildE2E(o options, sz e2eSize) (*e2eInput, error) {
	span := max(2, o.seconds-e2eTail)
	fin, err := buildFleet(fleet.Config{
		Seed: o.seed, Nodes: max(1, int(math.Round(sz.rate*span/float64(sz.packets)))), Gateways: 2,
		Channels: []int{0}, SFs: []int{8}, PacketsPerNode: sz.packets, DurationSec: span, CorruptPermille: 60,
	})
	if err != nil {
		return nil, err
	}
	p, err := lora.NewParams(8, 4, 125e3, e2eOSF)
	if err != nil {
		return nil, err
	}
	in := &e2eInput{p: p, fleet: fin}
	t0 := fin.trafficStart
	last := 1.0
	for _, u := range fin.traffic {
		last = max(last, u.TimeSec-t0)
	}
	chunk := p.SampleRate() * sendPeriod.Seconds()
	// Each gateway's receptions become one capture, as tnbnet's decodeGroup
	// renders a (gateway, channel, SF) group.
	for g := range in.wire {
		id := fleet.GatewayID(g)
		b := trace.NewBuilder(p, last+1, 1, rand.New(rand.NewSource(o.seed*7919+int64(g))))
		in.due[g] = map[string]time.Duration{}
		for i, u := range fin.traffic {
			if u.GatewayID != id {
				continue
			}
			start := (u.TimeSec - t0) * p.SampleRate()
			if err := b.AddPacket(i, 0, u.Payload, start, u.SNRdB, 0, nil); err != nil {
				return nil, err
			}
			end := start + float64(p.PacketSamples(len(u.Payload)))
			in.due[g][string(u.Payload)] = time.Duration(math.Ceil(end/chunk)) * sendPeriod
		}
		tr, _ := b.Build()
		var buf bytes.Buffer
		if err := trace.WriteIQ16(&buf, tr); err != nil {
			return nil, err
		}
		in.wire[g] = buf.Bytes()
	}
	return in, in.startServers(nil)
}

// gwServer is one loopback gateway standing in for a physical gateway.
type gwServer struct {
	srv    *gateway.Server
	addr   string
	cancel context.CancelFunc
	done   chan error
}

// startServers starts one gateway server per simulated gateway, recording
// into reg when it is non-nil.
func (in *e2eInput) startServers(reg *metrics.Registry) error {
	for g := range in.servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			in.stopServers()
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		s := &gwServer{
			srv:    &gateway.Server{ID: fleet.GatewayID(g), Workers: 1, Registry: reg},
			addr:   ln.Addr().String(),
			cancel: cancel,
			done:   make(chan error, 1),
		}
		go func() { s.done <- s.srv.Serve(ctx, ln) }()
		in.servers[g] = s
	}
	return nil
}

// stopServers stops the servers and waits until every connection handler
// has returned.
func (in *e2eInput) stopServers() {
	for g, s := range in.servers {
		if s != nil {
			s.cancel()
			<-s.done
			in.servers[g] = nil
		}
	}
}

// arrival is one report line as a reader goroutine received it. The
// report sits in a one-element array so gateway.Uplinks can take it as a
// slice without an allocation.
type arrival struct {
	gw  int
	rep [1]gateway.Report
}

// session is one open-loop run over the rendered captures.
type session struct {
	stats   repStats
	wall    float64
	ns      nsRun
	lat     []float64 // per delivered frame, seconds
	lags    []float64 // seconds each chunk was written after it was due
	unknown int       // reports carrying bytes no gateway was sent
}

// run replays the join phase into a fresh netserver, then streams both
// captures at 1× real time through the gateway servers, one connection
// each, handing every report to the netserver as it arrives.
func (in *e2eInput) run(rep *report, nsMet *netserver.Metrics) (*session, error) {
	fin := in.fleet
	cfg := fin.cfg
	cfg.Metrics = nsMet
	ns, err := netserver.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &session{}
	// The join phase runs as frames, as tnbnet -phy runs it, before the
	// radio section starts.
	t0 := time.Now()
	if s.ns.evs, err = fin.joinPhase(ns); err != nil {
		return nil, err
	}
	s.ns.join = time.Since(t0).Seconds()

	hello, err := json.Marshal(gateway.Hello{SF: in.p.SF, CR: in.p.CR, OSF: e2eOSF})
	if err != nil {
		return nil, err
	}
	var conns [2]*net.TCPConn
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for g, srv := range in.servers {
		c, err := net.Dial("tcp", srv.addr)
		if err != nil {
			return nil, err
		}
		conns[g] = c.(*net.TCPConn)
		if _, err := conns[g].Write(append(hello, '\n')); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	var sec section
	sec.start()
	start := time.Now()
	chunkBytes := 4 * int(in.p.SampleRate()*sendPeriod.Seconds())
	// The buffer holds a burst of reports (one window pass of one
	// connection) so a reader rarely waits on the ingest loop.
	arrivals := make(chan arrival, 64)
	var (
		senders, readers sync.WaitGroup
		sendLags         [2][]float64
		sendErr, readErr [2]error
	)
	for g, c := range conns {
		senders.Add(1)
		go func() {
			defer senders.Done()
			sendLags[g], sendErr[g] = send(c, in.wire[g], chunkBytes, start)
		}()
		readers.Add(1)
		go func() {
			defer readers.Done()
			readErr[g] = read(c, g, arrivals)
		}()
	}
	go func() {
		readers.Wait()
		close(arrivals)
	}()

	fs := in.p.SampleRate()
	firstAt := map[frameKey]float64{}
	var batch []arrival
	var ups []netserver.Uplink
	var ingestErr error
	for a := range arrivals {
		batch = append(batch[:0], a)
	drain:
		for {
			select {
			case b, ok := <-arrivals:
				if !ok {
					break drain
				}
				batch = append(batch, b)
			default:
				break drain
			}
		}
		if ingestErr != nil {
			continue // drain until the readers have stopped
		}
		ups = ups[:0]
		for i := range batch {
			ups = gateway.Uplinks(ups, batch[i].rep[:], fleet.GatewayID(batch[i].gw), in.p.SF, fin.trafficStart, fs)
		}
		// The first intact copy of a frame starts its latency clock at the
		// scheduled send of the copy's last sample.
		var fresh []frameKey
		var dueAt []time.Duration
		for i, u := range ups {
			due, sent := in.due[batch[i].gw][string(u.Payload)]
			if !sent {
				s.unknown++
				continue
			}
			k, intact := fin.or.keyOf[string(u.Payload)]
			if _, seen := firstAt[k]; intact && !seen {
				firstAt[k] = -1
				fresh, dueAt = append(fresh, k), append(dueAt, due)
			}
		}
		fleet.SortUplinks(ups)
		c0 := time.Now()
		evs, err := ns.Ingest(ups)
		ret := time.Now()
		if err != nil {
			ingestErr = err
			for _, c := range conns {
				c.Close() // stops the senders and readers
			}
			continue
		}
		s.ns.data += ret.Sub(c0).Seconds()
		s.ns.evs = append(s.ns.evs, evs...)
		for i, k := range fresh {
			firstAt[k] = ret.Sub(start.Add(dueAt[i])).Seconds()
		}
		if nsMet != nil {
			s.ns.dedupPeak = max(s.ns.dedupPeak, ns.Stats().DedupBytes)
		}
	}
	c0 := time.Now()
	evs, err := ns.Flush()
	s.ns.flsh = time.Since(c0).Seconds()
	sec.stop()
	senders.Wait()
	if err := errors.Join(ingestErr, err, sendErr[0], sendErr[1], readErr[0], readErr[1]); err != nil {
		return nil, err
	}
	s.ns.evs = append(s.ns.evs, evs...)
	s.ns.stats = ns.Stats()
	s.wall = sec.wall
	s.lags = append(sendLags[0], sendLags[1]...)

	delivered := rep.scoreFrames(fin.or, s.ns.evs)
	for k := range delivered {
		if at, ok := firstAt[k]; ok && at >= 0 {
			s.lat = append(s.lat, at)
		}
	}
	s.stats = newRepStats(fin.sent, sec.cpu, sec.alloc, s.lat)
	return s, nil
}

// send writes wire in chunks, chunk j once its last sample is due
// (start + (j+1)·sendPeriod). It never waits for the server beyond the
// write itself; how late each chunk went out is returned. It half-closes
// the connection at the end, which makes the server flush.
func send(c *net.TCPConn, wire []byte, chunk int, start time.Time) ([]float64, error) {
	var lags []float64
	for j := 0; j*chunk < len(wire); j++ {
		due := start.Add(time.Duration(j+1) * sendPeriod)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if _, err := c.Write(wire[j*chunk : min((j+1)*chunk, len(wire))]); err != nil {
			return lags, err
		}
		lags = append(lags, time.Since(due).Seconds())
	}
	return lags, c.CloseWrite()
}

// read forwards every report line of connection g until the server closes
// it. A typed error reply from the server ends the session with an error.
func read(c net.Conn, g int, out chan<- arrival) error {
	br := bufio.NewReader(c)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var r struct {
				gateway.Report
				gateway.GatewayError
			}
			if jerr := json.Unmarshal(line, &r); jerr != nil {
				return fmt.Errorf("gateway %d: bad report line: %w", g, jerr)
			}
			if r.Message != "" {
				return fmt.Errorf("gateway %d: %w", g, &r.GatewayError)
			}
			out <- arrival{gw: g, rep: [1]gateway.Report{r.Report}}
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func runE2E(o options, sz e2eSize) (*report, error) {
	in, setup, err := setUp(func() (*e2eInput, func(), error) {
		in, err := buildE2E(o, sz)
		if err != nil {
			return nil, func() {}, err
		}
		return in, in.stopServers, nil
	})
	if err != nil {
		return nil, err
	}
	defer in.stopServers()
	if in.fleet.or, err = newOracle(in.fleet.cfg.Devices, in.fleet.joins, in.fleet.joinEvs, in.fleet.traffic); err != nil {
		return nil, err
	}
	rep := &report{detail: map[string]any{}}
	s, err := in.run(rep, nil)
	if err != nil {
		return nil, err
	}
	rep.detail["latency_samples"] = len(s.lat)
	rep.detail["unknown_reports"] = s.unknown
	rep.detail["send_lag_p95_s"] = percentile(s.lags, 0.95)
	rep.detail["send_lag_max_s"] = percentile(s.lags, 1)
	if !o.trace {
		rep.metrics = endToEndMetrics(setup, rep.prr(), []repStats{s.stats}, false)
		return rep, nil
	}

	// The traced session: the same captures through servers recording into
	// a registry, and a netserver with its instruments on.
	in.stopServers()
	reg := metrics.NewRegistry()
	if err := in.startServers(reg); err != nil {
		return nil, err
	}
	t, err := in.run(rep, netserver.NewMetrics(reg))
	if err != nil {
		return nil, err
	}
	pm := stagegraph.NewPipelineMetrics(reg)
	stages := map[string]float64{
		"detect": pm.DetectSeconds.Sum(), "sigcalc": pm.SigCalcSeconds.Sum(),
		"thrive": pm.ThriveSeconds.Sum(), "decode": pm.DecodeSeconds.Sum(),
	}
	busy := 0.0
	for _, v := range stages {
		busy += v
	}
	smet := stream.NewMetrics(reg)
	ns := t.ns.join + t.ns.data + t.ns.flsh
	m := map[string]float64{
		"traced.overhead":            (t.stats.cpu / float64(t.stats.frames)) / (s.stats.cpu / float64(s.stats.frames)),
		"gateway.reports":            float64(gateway.NewMetrics(reg).ReportsOut.Value()),
		"gateway.decode_busy":        busy / (float64(len(in.servers)) * t.wall),
		"gateway.send_lag_p95":       percentile(t.lags, 0.95) / sendPeriod.Seconds(),
		"gateway.send_lag_max":       percentile(t.lags, 1) / sendPeriod.Seconds(),
		"stream.deferred":            float64(smet.DeferredPackets.Value()),
		"stream.dedup":               float64(smet.DedupSuppressed.Value()),
		"netserver.join.share":       t.ns.join / ns,
		"netserver.data.share":       t.ns.data / ns,
		"netserver.flush.share":      t.ns.flsh / ns,
		"netserver.delivered":        float64(t.ns.stats.Delivered),
		"netserver.dups":             float64(t.ns.stats.DupSuppressed),
		"netserver.drops":            float64(t.ns.stats.Dropped),
		"netserver.dedup_bytes_peak": float64(t.ns.dedupPeak),
	}
	zeroLayers(m)
	rep.metrics = m
	rep.detail["seconds_abs"] = map[string]float64{
		"session": t.wall, "netserver_join": t.ns.join, "netserver_data": t.ns.data, "netserver_flush": t.ns.flsh,
		"gateway_detect": stages["detect"], "gateway_sigcalc": stages["sigcalc"],
		"gateway_thrive": stages["thrive"], "gateway_decode": stages["decode"],
	}
	return rep, nil
}
