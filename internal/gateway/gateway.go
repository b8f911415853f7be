// Package gateway provides the network front-end of the TnB receiver: a
// TCP server that accepts raw int16-interleaved IQ sample streams (the
// USRP wire layout) and emits one JSON line per decoded packet on the same
// connection. It is the glue a deployment would run next to an SDR.
//
// Protocol: the client first sends a single JSON header line declaring the
// radio parameters, then streams raw IQ bytes. The server answers with
// JSON lines (Report) as packets decode, and closes after the client
// half-closes and the final flush completes. Protocol violations and
// resource-limit verdicts are answered with a one-line JSON error object
// carrying a machine-readable code (see GatewayError) before the close.
//
// The server is hardened for adversarial clients: every read and write
// carries a deadline, the opening hello line is length-capped, each
// connection's sample intake can be capped, and new connections past a
// configurable budget are shed with a typed "overloaded" reply. Every
// degradation increments a gateway metric and emits an internal/obs
// connection event, so chaos runs are attributable from the trace stream.
package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tnb/internal/lora"
	"tnb/internal/metrics"
	"tnb/internal/obs"
	"tnb/internal/stagegraph"
	"tnb/internal/stream"
)

// Hello is the client's opening line.
type Hello struct {
	SF        int     `json:"sf"`
	CR        int     `json:"cr"` // used for re-encoding; header decides per packet
	Bandwidth float64 `json:"bandwidth_hz,omitempty"`
	OSF       int     `json:"osf,omitempty"`
	UseBEC    *bool   `json:"use_bec,omitempty"` // default true
	// Channel is the logical uplink channel this connection's samples were
	// captured on, in [0, MaxChannels). It selects the (channel, SF) decode
	// shard; the default 0 preserves the single-channel protocol.
	Channel int `json:"channel,omitempty"`
	// Trace requests a per-packet decode-trace summary on every report
	// (sync score, ambiguous symbols, CRC tests — see obs.Summary).
	Trace bool `json:"trace,omitempty"`
}

// Validate checks the hello's radio parameters before a receiver is built.
// Zero values select defaults (CR 4, 125 kHz, OSF 8, channel 0); anything
// else out of range is rejected so the client gets a clear one-line JSON
// error instead of a silent mid-stream failure.
func (h Hello) Validate() error {
	if h.SF < 7 || h.SF > 12 {
		return fmt.Errorf("hello: sf %d out of range [7, 12] (the explicit PHY header needs sf >= 7)", h.SF)
	}
	if h.CR < 0 || h.CR > 4 {
		return fmt.Errorf("hello: cr %d out of range [1, 4] (0 selects CR 4)", h.CR)
	}
	if h.Bandwidth < 0 {
		return fmt.Errorf("hello: bandwidth_hz %g must be positive (0 selects 125 kHz)", h.Bandwidth)
	}
	if h.OSF < 0 || h.OSF > 64 {
		return fmt.Errorf("hello: osf %d out of range [1, 64] (0 selects 8)", h.OSF)
	}
	if h.Channel < 0 || h.Channel >= MaxChannels {
		return fmt.Errorf("hello: channel %d out of range [0, %d)", h.Channel, MaxChannels)
	}
	return nil
}

// ParseHello decodes one hello line strictly: unknown JSON members are
// rejected, so a typo'd field (e.g. "chanel") fails loudly at the hello
// instead of silently decoding on the default channel. Trailing bytes
// after the object (other than whitespace) are rejected for the same
// reason.
func ParseHello(line []byte) (Hello, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var h Hello
	if err := dec.Decode(&h); err != nil {
		return Hello{}, err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return Hello{}, errors.New("hello: trailing data after the hello object")
	}
	return h, nil
}

// Report is one decoded packet, emitted as a JSON line.
type Report struct {
	Payload    []byte `json:"payload"`
	PayloadLen int    `json:"payload_len"`
	CR         int    `json:"cr"`
	// Channel echoes the hello's channel, so a multi-channel consumer can
	// merge report streams without tracking which connection is which.
	Channel     int     `json:"channel,omitempty"`
	AbsStart    float64 `json:"abs_start_sample"`
	CFOHz       float64 `json:"cfo_hz"`
	SNRdB       float64 `json:"snr_db"`
	Pass        int     `json:"pass"`
	Rescued     int     `json:"rescued_codewords"`
	DataSymbols int     `json:"data_symbols,omitempty"`
	AirtimeSec  float64 `json:"airtime_sec,omitempty"`
	// Trace is the decode-trace summary, present when the hello requested
	// tracing.
	Trace *obs.Summary `json:"trace,omitempty"`
}

// Default per-operation I/O deadlines and the hello line-length cap.
const (
	DefaultReadTimeout  = 2 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
	maxHelloBytes       = 1 << 12
)

// Server decodes LoRa IQ streams for its clients.
type Server struct {
	// ID names this gateway in the fleet. It is stamped (with each
	// connection's channel and SF) into the origin of every trace record
	// the server emits, so a shared trace store can be filtered by
	// gateway. Empty is fine for single-gateway deployments.
	ID string
	// Log receives structured connection-level diagnostics with
	// per-connection attributes (remote addr, radio parameters, packet
	// counts); nil silences them, matching the old nil-Logf behavior.
	Log *slog.Logger
	// Registry, when non-nil, wires the full instrumentation stack:
	// gateway connection metrics plus the per-stage receiver and streamer
	// instruments of every connection. Use metrics.Default to share the
	// process-wide registry served by the -metrics endpoint.
	Registry *metrics.Registry
	// Tracer, when non-nil, records every connection's decode traces
	// (JSONL sink and /debug/traces ring, see internal/obs). Clients that
	// set "trace" in the hello get per-report summaries even without a
	// server tracer.
	Tracer *obs.Tracer
	// Workers is the per-connection receiver pool width
	// (stagegraph.Config.Workers semantics: 0 → GOMAXPROCS, 1 → serial). A
	// gateway serving many concurrent connections may prefer 1 so each
	// connection stays on one core.
	Workers int
	// ReadTimeout bounds every network read; a client that stalls longer
	// is dropped and counted. 0 selects DefaultReadTimeout; negative
	// disables the deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds every reply write; a client that stops draining
	// reports is dropped and counted. 0 selects DefaultWriteTimeout;
	// negative disables the deadline.
	WriteTimeout time.Duration
	// MaxSamplesPerConn caps the IQ samples one connection may stream.
	// Past the cap the server replies {"code":"sample_limit"} and closes.
	// 0 means unlimited.
	MaxSamplesPerConn int64
	// MaxConns is the overload-shedding budget: a connection accepted
	// while MaxConns others are already open is answered with
	// {"code":"overloaded"} and closed before any receiver state is
	// built. 0 means unlimited.
	MaxConns int

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]bool // live connections: true once past the hello
	wg       sync.WaitGroup
	active   atomic.Int64
	shutdown atomic.Bool

	metOnce sync.Once
	met     *Metrics
	pmet    *stagegraph.PipelineMetrics
	smet    *stream.Metrics

	shOnce sync.Once
	sh     *sharder
}

// shards lazily builds the server's (channel, SF) shard table.
func (s *Server) shards() *sharder {
	s.shOnce.Do(func() {
		met, _, _ := s.instruments()
		var newSM func(ShardKey) *ShardMetrics
		if s.Registry != nil {
			reg := s.Registry
			newSM = func(k ShardKey) *ShardMetrics { return NewShardMetrics(reg, k) }
		}
		s.sh = newSharder(shardQueue, met, newSM)
	})
	return s.sh
}

// ShardCount reports how many (channel, SF) decode shards are live.
func (s *Server) ShardCount() int { return s.shards().size() }

// instruments lazily builds the server's metric handles from s.Registry.
// With no registry everything stays nil, and the nil-safe methods make the
// whole instrumentation a no-op.
func (s *Server) instruments() (*Metrics, *stagegraph.PipelineMetrics, *stream.Metrics) {
	s.metOnce.Do(func() {
		if s.Registry == nil {
			return
		}
		s.met = NewMetrics(s.Registry)
		s.pmet = stagegraph.NewPipelineMetrics(s.Registry)
		s.smet = stream.NewMetrics(s.Registry)
	})
	return s.met, s.pmet, s.smet
}

func (s *Server) readTimeout() time.Duration {
	if s.ReadTimeout == 0 {
		return DefaultReadTimeout
	}
	if s.ReadTimeout < 0 {
		return 0
	}
	return s.ReadTimeout
}

func (s *Server) writeTimeout() time.Duration {
	if s.WriteTimeout == 0 {
		return DefaultWriteTimeout
	}
	if s.WriteTimeout < 0 {
		return 0
	}
	return s.WriteTimeout
}

// track registers/unregisters a live connection for Shutdown. A connection
// registered after the drain began is closed at once: it can no longer get
// past its hello.
func (s *Server) track(conn net.Conn, on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conns == nil {
		s.conns = make(map[net.Conn]bool)
	}
	if !on {
		delete(s.conns, conn)
		return
	}
	s.conns[conn] = false
	if s.shutdown.Load() {
		conn.Close()
	}
}

// admit marks conn as past its hello, so the drain waits for its decodes.
// It reports false once the drain has begun, which closes every connection
// still short of its hello, conn included.
func (s *Server) admit(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown.Load() {
		return false
	}
	s.conns[conn] = true
	return true
}

// stopAccepting begins the drain: it closes the listener and every
// connection that has not got past its hello. Those handlers would
// otherwise block on the hello read for the whole read timeout, holding up
// the drain with no decode in flight. Holding s.mu orders this against
// admit.
func (s *Server) stopAccepting() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shutdown.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	for c, admitted := range s.conns {
		if !admitted {
			c.Close()
		}
	}
}

// Serve accepts connections on ln until the context is canceled, Shutdown
// is called, or the listener fails. It blocks, and on the way out waits for
// every in-flight connection to finish its decodes (the drain); connections
// that have not sent their hello are closed instead.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()

	go func() {
		<-ctx.Done()
		s.stopAccepting()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Every handler has a shard reference only while it lives, so
			// the shard workers stop once the handler WaitGroup drains.
			s.wg.Wait()
			s.shards().close()
			if ctx.Err() != nil || s.shutdown.Load() {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		s.active.Add(1)
		s.track(conn, true)
		go func() {
			defer s.wg.Done()
			defer s.active.Add(-1)
			defer s.track(conn, false)
			defer conn.Close()
			log := s.logger().With("remote", conn.RemoteAddr().String())
			if err := s.handle(conn, log); err != nil && !errors.Is(err, io.EOF) {
				log.Error("connection failed", "err", err)
			}
		}()
	}
}

// Shutdown stops accepting and drains in-flight connections: it closes
// connections that have not sent their hello yet, then blocks until every
// other handler has finished (flushing its final decodes) or the context
// expires, at which point lingering connections are force-closed and their
// handlers reaped. Safe to call concurrently with Serve.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopAccepting()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// discardLog swallows records without formatting them; the nil-Log default.
var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

func (s *Server) logger() *slog.Logger {
	if s.Log != nil {
		return s.Log
	}
	return discardLog
}

// deadlineConn arms a fresh deadline before every read and write, so the
// per-operation timeouts apply to idle time, not total connection life.
type deadlineConn struct {
	net.Conn
	read, write time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if c.read > 0 {
		c.SetReadDeadline(time.Now().Add(c.read))
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if c.write > 0 {
		c.SetWriteDeadline(time.Now().Add(c.write))
	}
	return c.Conn.Write(p)
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// readLineLimit reads one newline-terminated line of at most max bytes;
// longer lines fail instead of buffering without bound.
func readLineLimit(br *bufio.Reader, max int) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		if len(line) > max {
			return nil, fmt.Errorf("line exceeds %d bytes", max)
		}
		if err == nil {
			return line, nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return line, err
		}
	}
}

// handle runs one client connection.
func (s *Server) handle(conn net.Conn, log *slog.Logger) error {
	met, pmet, smet := s.instruments()
	met.onConnOpen()
	defer met.onConnClose()

	remote := conn.RemoteAddr().String()
	dc := &deadlineConn{Conn: conn, read: s.readTimeout(), write: s.writeTimeout()}
	br := bufio.NewReaderSize(dc, 1<<16)
	bw := bufio.NewWriter(dc)
	enc := json.NewEncoder(bw)

	// replyErr sends the one-line typed JSON error object; the connection
	// closes right after, so misbehaving clients fail loudly with a code
	// they can switch on instead of a silent drop.
	replyErr := func(code, msg string) {
		enc.Encode(GatewayError{Code: code, Message: msg})
		bw.Flush()
	}

	// Overload shedding: past the connection budget, refuse before any
	// receiver state is built. s.active includes this connection.
	if s.MaxConns > 0 && s.active.Load() > int64(s.MaxConns) {
		met.onOverloadShed()
		s.Tracer.OnConn(obs.ConnOverloadShed, remote, "")
		log.Warn("connection shed", "budget", s.MaxConns)
		replyErr(CodeOverloaded, fmt.Sprintf("server at its %d-connection budget, retry with backoff", s.MaxConns))
		return nil
	}

	// reject drops the client at the hello line with a typed reply.
	reject := func(err error) error {
		met.onHelloRejected()
		s.Tracer.OnConn(obs.ConnHelloRejected, remote, err.Error())
		replyErr(CodeBadHello, err.Error())
		return err
	}

	line, err := readLineLimit(br, maxHelloBytes)
	if err != nil {
		if s.shutdown.Load() {
			return nil // closed by the drain before its hello arrived
		}
		if isTimeout(err) {
			met.onReadTimeout()
			s.Tracer.OnConn(obs.ConnReadTimeout, remote, "reading hello")
			return fmt.Errorf("reading hello: %w", err)
		}
		if errors.Is(err, io.EOF) {
			return io.EOF // connected and left without a word; not an error
		}
		return reject(fmt.Errorf("reading hello: %w", err))
	}
	hello, err := ParseHello(line)
	if err != nil {
		return reject(fmt.Errorf("parsing hello: %w", err))
	}
	if err := hello.Validate(); err != nil {
		return reject(err)
	}
	params, err := lora.NewParams(hello.SF, orDefault(hello.CR, 4), hello.Bandwidth, hello.OSF)
	if err != nil {
		return reject(err)
	}
	useBEC := hello.UseBEC == nil || *hello.UseBEC
	if !s.admit(conn) {
		return nil // the drain began before this hello was accepted
	}

	// Tracing: the server's tracer (ops export) if present; a hello that
	// requests summaries without one gets a connection-local tracer so
	// traces exist for summarizing.
	tracer := s.Tracer
	if tracer == nil && hello.Trace {
		tracer = obs.New(obs.Options{})
	}
	// From here on every trace record carries the connection's fleet
	// position; pre-hello events above can't, since the channel is only
	// known once the hello parses.
	tracer = tracer.WithOrigin(obs.Origin{Gateway: s.ID, Channel: hello.Channel, SF: params.SF})

	st, err := stream.New(stream.Config{
		Receiver: stagegraph.Config{Params: params, UseBEC: useBEC, Workers: s.Workers, Metrics: pmet, Tracer: tracer},
		Metrics:  smet,
	})
	if err != nil {
		return err
	}

	// Route this connection's decode work to its (channel, SF) shard: a
	// bounded-queue worker serializing all streams on that logical radio.
	key := ShardKey{Channel: hello.Channel, SF: params.SF}
	shard := s.shards().get(key)
	if shard == nil {
		return errors.New("gateway: server is draining")
	}
	runShard := func(do func() shardResult) ([]stream.Decoded, error) {
		ds, err := shard.exec(shardWait, do)
		var soe *ShardOverloadError
		if errors.As(err, &soe) {
			met.onShardOverload()
			tracer.OnConn(obs.ConnShardOverload, remote, soe.Error())
			log.Warn("connection shed at shard queue", "shard", key.String())
			replyErr(CodeShardOverload, soe.Error())
		}
		return ds, err
	}

	log = log.With("sf", params.SF, "cr", params.CR, "bec", useBEC, "shard", key.String())
	log.Info("stream configured", "bandwidth_hz", params.Bandwidth,
		"osf", params.OSF, "trace", tracer != nil)

	reports, bytesIn := 0, 0
	defer func() {
		log.Info("connection closed", "reports", reports, "bytes_in", bytesIn)
	}()

	feed := func(samples []complex128) ([]stream.Decoded, error) {
		return runShard(func() shardResult {
			d, e := st.Feed(samples)
			return shardResult{decoded: d, err: e}
		})
	}
	flush := func() ([]stream.Decoded, error) {
		return runShard(func() shardResult {
			d, e := st.Flush()
			return shardResult{decoded: d, err: e}
		})
	}

	emit := func(ds []stream.Decoded, err error) error {
		if err != nil {
			return err
		}
		for _, d := range ds {
			rep := toReport(d, params, hello.Channel)
			if hello.Trace && d.Trace != nil {
				sum := obs.Summarize(d.Trace)
				rep.Trace = &sum
			}
			if err := enc.Encode(rep); err != nil {
				return err
			}
		}
		met.onReports(len(ds))
		reports += len(ds)
		return bw.Flush()
	}

	// classify attributes a mid-stream failure: deadline expiries and
	// transport deaths get their own counters and obs events so injected
	// faults stay distinguishable in the exported state.
	classify := func(err error, writing bool) error {
		switch {
		case isTimeout(err) && writing:
			met.onWriteTimeout()
			tracer.OnConn(obs.ConnWriteTimeout, remote, err.Error())
		case isTimeout(err):
			met.onReadTimeout()
			tracer.OnConn(obs.ConnReadTimeout, remote, err.Error())
		default:
			met.onClientAbort()
			tracer.OnConn(obs.ConnClientAbort, remote, err.Error())
		}
		return err
	}

	// Read raw IQ: 4 bytes per sample (int16 I, int16 Q, little endian).
	const chunkSamples = 1 << 16
	raw := make([]byte, 4*chunkSamples)
	samples := make([]complex128, 0, chunkSamples)
	var samplesFed int64
	for {
		n, err := io.ReadFull(br, raw)
		if n > 0 {
			met.onBytesIn(n)
			bytesIn += n
			n -= n % 4
			samples = samples[:0]
			for i := 0; i < n; i += 4 {
				re := int16(binary.LittleEndian.Uint16(raw[i : i+2]))
				im := int16(binary.LittleEndian.Uint16(raw[i+2 : i+4]))
				samples = append(samples, complex(float64(re)/4096, float64(im)/4096))
			}
			samplesFed += int64(len(samples))
			if s.MaxSamplesPerConn > 0 && samplesFed > s.MaxSamplesPerConn {
				met.onSampleLimit()
				tracer.OnConn(obs.ConnSampleLimit, remote,
					fmt.Sprintf("fed %d samples, cap %d", samplesFed, s.MaxSamplesPerConn))
				log.Warn("sample cap exceeded", "cap", s.MaxSamplesPerConn)
				replyErr(CodeSampleLimit, fmt.Sprintf("connection exceeded its %d-sample cap", s.MaxSamplesPerConn))
				return nil
			}
			if err := emit(feed(samples)); err != nil {
				var oe *stream.OverflowError
				if errors.As(err, &oe) {
					met.onStreamOverflow()
					tracer.OnConn(obs.ConnStreamOverflow, remote, oe.Error())
					replyErr(CodeStreamOverflow, oe.Error())
					return nil
				}
				var soe *ShardOverloadError
				if errors.As(err, &soe) {
					return nil // runShard already replied and counted
				}
				return classify(err, true)
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				// Clean end of stream (half-close), possibly mid-quad: a
				// truncated trailing sample is dropped, the buffered tail
				// is flushed and the final reports are emitted.
				if err := emit(flush()); err != nil {
					var soe *ShardOverloadError
					if errors.As(err, &soe) {
						return nil
					}
					return classify(err, true)
				}
				return nil
			}
			return classify(err, false)
		}
	}
}

func toReport(d stream.Decoded, p lora.Params, ch int) Report {
	return Report{
		Payload:     d.Payload,
		PayloadLen:  d.Header.PayloadLen,
		CR:          d.Header.CR,
		Channel:     ch,
		AbsStart:    d.AbsStart,
		CFOHz:       d.CFOCycles / p.SymbolDuration(),
		SNRdB:       d.SNRdB,
		Pass:        d.Pass,
		Rescued:     d.Rescued,
		DataSymbols: d.DataSymbols,
		AirtimeSec:  d.AirtimeSec,
	}
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// ListenAndServe listens on addr and serves until the context ends.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logger().Info("gateway listening", "addr", ln.Addr().String())
	return s.Serve(ctx, ln)
}
