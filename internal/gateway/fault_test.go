package gateway

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"tnb/internal/faultinject"
	"tnb/internal/lora"
	"tnb/internal/metrics"
	"tnb/internal/obs"
	"tnb/internal/trace"
)

// startFaultServer boots a server with a private registry and tracer so
// each test reads exactly what its own connections recorded; conns is the
// tracer's JSONL export. mutate tunes the hardening knobs before the
// listener starts.
func startFaultServer(t *testing.T, mutate func(*Server)) (addr string, met *Metrics, conns *connLog, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	conns = &connLog{}
	srv := &Server{Log: testLogger(t), Registry: reg, Tracer: obs.New(obs.Options{Sink: conns})}
	if mutate != nil {
		mutate(srv)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return ln.Addr().String(), NewMetrics(reg), conns, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("server did not stop")
		}
	}
}

// quadBytes serializes samples in the int16 IQ wire layout.
func quadBytes(samples []complex128) []byte {
	out := make([]byte, 0, 4*len(samples))
	var quad [4]byte
	for _, v := range samples {
		binary.LittleEndian.PutUint16(quad[0:2], uint16(clampI16(real(v)*4096)))
		binary.LittleEndian.PutUint16(quad[2:4], uint16(clampI16(imag(v)*4096)))
		out = append(out, quad[:]...)
	}
	return out
}

// runScenario drives one faulty client end to end: hello (optionally
// corrupted), the IQ stream mangled per the scenario, half-close, drain.
// Transport errors are expected outcomes, never test failures; the
// server's replies and any typed verdict are returned for assertions.
func runScenario(t *testing.T, addr string, sc faultinject.Scenario, samples []complex128, hello Hello) (reports []Report, verdict *GatewayError, err error) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	defer raw.Close()
	fc := faultinject.WrapConn(raw, sc)

	hb, err := json.Marshal(hello)
	if err != nil {
		t.Fatal(err)
	}
	hb = append(hb, '\n')
	if _, err := fc.Write(sc.CorruptLine(hb)); err != nil {
		return nil, nil, err
	}

	wire := quadBytes(nil)
	for _, chunk := range sc.Chunks(sc.Samples(samples)) {
		wire = append(wire, quadBytes(chunk)...)
	}
	var sendErr error
	for off := 0; off < len(wire); off += 1 << 16 {
		end := off + 1<<16
		if end > len(wire) {
			end = len(wire)
		}
		if _, sendErr = fc.Write(wire[off:end]); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		if tc, ok := raw.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}

	raw.SetReadDeadline(time.Now().Add(20 * time.Second))
	dec := json.NewDecoder(raw)
	for {
		var rawMsg json.RawMessage
		if derr := dec.Decode(&rawMsg); derr != nil {
			if errors.Is(derr, io.EOF) {
				return reports, verdict, sendErr
			}
			return reports, verdict, derr
		}
		if ge := parseErrorReply(rawMsg); ge != nil {
			verdict = ge
			continue
		}
		var r Report
		if uerr := json.Unmarshal(rawMsg, &r); uerr == nil {
			reports = append(reports, r)
		}
	}
}

// soakTrace is a shorter trace than the e2e one, shared by the fault and
// chaos tests so a dozen scenario runs stay fast.
func soakTrace(t *testing.T, seed int64, n int) (*trace.Trace, []trace.TxRecord) {
	t.Helper()
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder(p, 1.0, 1, rng)
	starts := b.ScheduleUniform(n, 14)
	for i, s := range starts {
		payload := make([]uint8, 14)
		rng.Read(payload)
		if err := b.AddPacket(i, 0, payload, s, 10, -3000+float64(i)*1500, nil); err != nil {
			t.Fatal(err)
		}
	}
	tr, recs := b.Build()
	return tr, recs
}

// payloadSet indexes the transmitted payloads for membership checks.
func payloadSet(recs []trace.TxRecord) map[string]bool {
	set := make(map[string]bool, len(recs))
	for _, r := range recs {
		set[string(r.Payload)] = true
	}
	return set
}

// TestGatewayFaultTruncation cuts the stream mid-quad three quarters in:
// packets before the cut must still decode, the tail is dropped cleanly,
// and the connection terminates without an error verdict.
func TestGatewayFaultTruncation(t *testing.T) {
	addr, met, _, stop := startFaultServer(t, nil)
	defer stop()

	tr, _ := soakTrace(t, 910, 3)
	wireLen := 4 * len(tr.Antennas[0])
	sc := faultinject.Scenario{Kind: faultinject.Truncate, Seed: 1,
		TruncateAfter: wireLen*3/4 + 2} // +2 splits an IQ quad
	// The fault closes the client's own socket at the cut, so the replies
	// are unreadable client-side; the server's metrics carry the proof.
	_, verdict, _ := runScenario(t, addr, sc, tr.Antennas[0], Hello{SF: 8, CR: 4})

	if verdict != nil {
		t.Errorf("truncation drew an error verdict: %v", verdict)
	}
	waitCounter(t, met.ReportsOut, 1) // packets before the cut still decode
	waitCounter(t, met.BytesIn, uint64(wireLen/2))
	waitGauge(t, met.ConnectionsActive, 0)
}

// TestGatewayFaultSlowIO trickles bytes slower than the read deadline and
// checks the stall is cut off, counted, and attributed.
func TestGatewayFaultSlowIO(t *testing.T) {
	addr, met, conns, stop := startFaultServer(t, func(s *Server) {
		s.ReadTimeout = 150 * time.Millisecond
	})
	defer stop()

	tr, _ := soakTrace(t, 911, 2)
	sc := faultinject.Scenario{Kind: faultinject.SlowIO, Seed: 2,
		BurstBytes: 64, Delay: 400 * time.Millisecond}
	// Only the first few bursts matter; the server must hang up first.
	runScenario(t, addr, sc, tr.Antennas[0][:20_000], Hello{SF: 8, CR: 4})

	waitCounter(t, met.ReadTimeouts, 1)
	waitConnEvents(t, conns, obs.ConnReadTimeout, 1)
	waitGauge(t, met.ConnectionsActive, 0)
}

// TestGatewayFaultDuplicateReorder replays and swaps sample chunks. The
// server must stay live, and everything it does decode must be a payload
// that was really transmitted.
func TestGatewayFaultDuplicateReorder(t *testing.T) {
	addr, met, _, stop := startFaultServer(t, nil)
	defer stop()

	tr, recs := soakTrace(t, 912, 3)
	sent := payloadSet(recs)
	for _, kind := range []faultinject.Kind{faultinject.Duplicate, faultinject.Reorder} {
		sc := faultinject.Scenario{Kind: kind, Seed: 3}
		reports, verdict, err := runScenario(t, addr, sc, tr.Antennas[0], Hello{SF: 8, CR: 4})
		if err != nil {
			t.Errorf("%s: transport error: %v", kind, err)
		}
		if verdict != nil {
			t.Errorf("%s: unexpected verdict: %v", kind, verdict)
		}
		for _, r := range reports {
			if !sent[string(r.Payload)] {
				t.Errorf("%s: decoded a payload nobody sent: %x", kind, r.Payload)
			}
		}
		t.Logf("%s: %d reports", kind, len(reports))
	}
	if met.ReportsOut.Value() == 0 {
		t.Error("no reports emitted across duplicate/reorder runs")
	}
	waitGauge(t, met.ConnectionsActive, 0)
}

// TestGatewayFaultDisconnect aborts the transport mid-stream (RST) and
// checks the death is counted as a client abort, not a crash.
func TestGatewayFaultDisconnect(t *testing.T) {
	addr, met, conns, stop := startFaultServer(t, nil)
	defer stop()

	tr, _ := soakTrace(t, 913, 2)
	sc := faultinject.Scenario{Kind: faultinject.Disconnect, Seed: 4, DisconnectAfter: 300_000}
	runScenario(t, addr, sc, tr.Antennas[0], Hello{SF: 8, CR: 4})

	waitCounter(t, met.ClientAborts, 1)
	waitConnEvents(t, conns, obs.ConnClientAbort, 1)
	waitGauge(t, met.ConnectionsActive, 0)
}

// TestGatewayFaultCorruptHello flips bytes in the hello line and checks
// the typed bad_hello verdict, the metric, and the obs attribution.
func TestGatewayFaultCorruptHello(t *testing.T) {
	addr, met, conns, stop := startFaultServer(t, nil)
	defer stop()

	// Across several seeds every corrupted hello must either draw a typed
	// bad_hello verdict or — if the flips happened to keep the JSON valid
	// and in range — decode as a normal session. Nothing else.
	rejections := 0
	for seed := int64(0); seed < 5; seed++ {
		sc := faultinject.Scenario{Kind: faultinject.CorruptHello, Seed: seed}
		_, verdict, _ := runScenario(t, addr, sc, nil, Hello{SF: 8, CR: 4})
		if verdict != nil {
			if verdict.Code != CodeBadHello {
				t.Errorf("seed %d: verdict code %q, want %q", seed, verdict.Code, CodeBadHello)
			}
			rejections++
		}
	}
	if rejections == 0 {
		t.Fatal("no corrupted hello drew a rejection in 5 seeds")
	}
	waitCounter(t, met.HelloRejected, uint64(rejections))
	waitConnEvents(t, conns, obs.ConnHelloRejected, rejections)
	if n := conns.count(obs.ConnHelloRejected); n != rejections {
		t.Errorf("obs hello_rejected = %d, want %d", n, rejections)
	}
}

// TestGatewayFaultIQSaturation drives samples to full scale. The
// fixed-point wire clamps them; the server must survive and anything it
// decodes must be genuine.
func TestGatewayFaultIQSaturation(t *testing.T) {
	addr, met, _, stop := startFaultServer(t, nil)
	defer stop()

	tr, recs := soakTrace(t, 914, 3)
	sc := faultinject.Scenario{Kind: faultinject.IQSaturate, Seed: 5, Rate: 0.02}
	reports, verdict, err := runScenario(t, addr, sc, tr.Antennas[0], Hello{SF: 8, CR: 4})
	if err != nil {
		t.Errorf("transport error: %v", err)
	}
	if verdict != nil {
		t.Errorf("unexpected verdict: %v", verdict)
	}
	sent := payloadSet(recs)
	for _, r := range reports {
		if !sent[string(r.Payload)] {
			t.Errorf("bogus payload from saturated stream: %x", r.Payload)
		}
	}
	if met.BytesIn.Value() == 0 {
		t.Error("no bytes counted")
	}
	waitGauge(t, met.ConnectionsActive, 0)
}

// TestGatewayFaultIQNaN checks the NaN/Inf fault class at the gateway
// boundary: the int16 wire format cannot carry non-finite values (the
// client encoder maps NaN to silence), so the server-side non-finite
// counter must stay at zero while the stream still decodes. The
// stream-layer sanitizer itself is covered in internal/stream.
func TestGatewayFaultIQNaN(t *testing.T) {
	reg := metrics.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Log: testLogger(t), Registry: reg}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() { cancel(); <-done }()

	tr, _ := soakTrace(t, 915, 2)
	sc := faultinject.Scenario{Kind: faultinject.IQNaN, Seed: 6, Rate: 0.01}
	_, verdict, err := runScenario(t, ln.Addr().String(), sc, tr.Antennas[0], Hello{SF: 8, CR: 4})
	if err != nil {
		t.Errorf("transport error: %v", err)
	}
	if verdict != nil {
		t.Errorf("unexpected verdict: %v", verdict)
	}
	smet := streamMetricsOn(reg)
	if v := smet.NonFinite.Value(); v != 0 {
		t.Errorf("non-finite samples crossed the int16 wire: %d", v)
	}
}

// TestGatewayFaultIQSilence blanks gaps in the feed; the server must ride
// through them and keep the connection accountable.
func TestGatewayFaultIQSilence(t *testing.T) {
	addr, met, _, stop := startFaultServer(t, nil)
	defer stop()

	tr, recs := soakTrace(t, 916, 3)
	sc := faultinject.Scenario{Kind: faultinject.IQSilence, Seed: 7, Rate: 0.2}
	reports, verdict, err := runScenario(t, addr, sc, tr.Antennas[0], Hello{SF: 8, CR: 4})
	if err != nil {
		t.Errorf("transport error: %v", err)
	}
	if verdict != nil {
		t.Errorf("unexpected verdict: %v", verdict)
	}
	sent := payloadSet(recs)
	for _, r := range reports {
		if !sent[string(r.Payload)] {
			t.Errorf("bogus payload from silenced stream: %x", r.Payload)
		}
	}
	waitGauge(t, met.ConnectionsActive, 0)
}

// TestGatewaySampleLimit streams past the per-connection cap and checks
// the typed sample_limit verdict, the metric, and the obs event.
func TestGatewaySampleLimit(t *testing.T) {
	const sampleCap = 200_000
	addr, met, conns, stop := startFaultServer(t, func(s *Server) {
		s.MaxSamplesPerConn = sampleCap
	})
	defer stop()

	tr, _ := soakTrace(t, 917, 2)
	c, err := Dial(addr, Hello{SF: 8, CR: 4})
	if err != nil {
		t.Fatal(err)
	}
	sendErr := c.Send(tr.Antennas[0]) // well past the cap
	_, finErr := c.Finish()

	var ge *GatewayError
	if !errors.As(sendErr, &ge) && !errors.As(finErr, &ge) {
		t.Fatalf("no typed verdict: send=%v finish=%v", sendErr, finErr)
	}
	if ge.Code != CodeSampleLimit {
		t.Errorf("verdict code %q, want %q", ge.Code, CodeSampleLimit)
	}
	waitCounter(t, met.SampleLimit, 1)
	waitConnEvents(t, conns, obs.ConnSampleLimit, 1)
	if n := conns.count(obs.ConnSampleLimit); n != 1 {
		t.Errorf("obs sample_limit = %d, want 1", n)
	}
	waitGauge(t, met.ConnectionsActive, 0)
}

// TestGatewayOverloadShed fills the connection budget and checks the
// surplus client gets a retryable typed verdict, then succeeds once the
// budget frees up via DialBackoff.
func TestGatewayOverloadShed(t *testing.T) {
	addr, met, conns, stop := startFaultServer(t, func(s *Server) {
		s.MaxConns = 1
	})
	defer stop()

	blocker, err := Dial(addr, Hello{SF: 8, CR: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Give the server a beat to register the blocker before probing.
	waitGaugeAtLeast(t, met.ConnectionsActive, 1)

	_, err = DialBackoff(addr, Hello{SF: 8, CR: 4}, Backoff{Attempts: 1})
	var ge *GatewayError
	if !errors.As(err, &ge) {
		t.Fatalf("shed dial error = %v, want *GatewayError", err)
	}
	if ge.Code != CodeOverloaded || !ge.Retryable() {
		t.Errorf("verdict = %+v, want retryable %s", ge, CodeOverloaded)
	}
	waitCounter(t, met.OverloadShed, 1)
	waitConnEvents(t, conns, obs.ConnOverloadShed, 1)
	if n := conns.count(obs.ConnOverloadShed); n != 1 {
		t.Errorf("obs overload_shed = %d, want 1", n)
	}

	// Free the budget mid-backoff: the retrying dial must get through.
	go func() {
		time.Sleep(120 * time.Millisecond)
		blocker.Close()
	}()
	c, err := DialBackoff(addr, Hello{SF: 8, CR: 4}, Backoff{Attempts: 5, Base: 80 * time.Millisecond, Seed: 42})
	if err != nil {
		t.Fatalf("backoff dial never got through: %v", err)
	}
	c.Close()
}

// TestGatewayBadHelloTyped checks the client surfaces a hello rejection as
// a typed, non-retryable *GatewayError at dial time.
func TestGatewayBadHelloTyped(t *testing.T) {
	addr, _, _, stop := startFaultServer(t, nil)
	defer stop()

	start := time.Now()
	_, err := DialBackoff(addr, Hello{SF: 99}, Backoff{Attempts: 5, Base: 300 * time.Millisecond})
	var ge *GatewayError
	if !errors.As(err, &ge) {
		t.Fatalf("bad hello error = %v, want *GatewayError", err)
	}
	if ge.Code != CodeBadHello || ge.Retryable() {
		t.Errorf("verdict = %+v, want non-retryable %s", ge, CodeBadHello)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("non-retryable verdict burned the backoff schedule (%v)", elapsed)
	}
}

// TestGatewayStreamRetries exercises the chunked-resend path: the first
// exchange dies at the connection budget, the retry succeeds end to end.
// TestBackoffSchedule pins the retry delays: the default policy for seeds 1
// (also the zero seed), 7 and 42, and a longer one whose doubling reaches
// the 2 s cap before jitter.
func TestBackoffSchedule(t *testing.T) {
	for _, c := range []struct {
		b    Backoff
		want []time.Duration
	}{
		{Backoff{}, []time.Duration{52616507, 122025454, 216456005}},
		{Backoff{Seed: 1}, []time.Duration{52616507, 122025454, 216456005}},
		{Backoff{Seed: 7}, []time.Duration{60472303, 86575359, 174138757}},
		{Backoff{Seed: 42}, []time.Duration{46825710, 78300025, 210409385}},
		{Backoff{Attempts: 8, Base: 300 * time.Millisecond, Seed: 7},
			[]time.Duration{362833823, 519452153, 1044832541, 2411562174, 2198235543, 1646155949, 1854214699}},
	} {
		got := c.b.delays()
		if len(got) != len(c.want) {
			t.Fatalf("%+v: %d delays, want %d", c.b, len(got), len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%+v: delays %v, want %v", c.b, got, c.want)
				break
			}
		}
	}
}

func TestGatewayStreamRetries(t *testing.T) {
	addr, met, _, stop := startFaultServer(t, func(s *Server) {
		s.MaxConns = 1
	})
	defer stop()

	blocker, err := Dial(addr, Hello{SF: 8, CR: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitGaugeAtLeast(t, met.ConnectionsActive, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		blocker.Close()
	}()

	tr, recs := soakTrace(t, 918, 2)
	reports, err := Stream(addr, Hello{SF: 8, CR: 4}, tr.Antennas[0],
		Backoff{Attempts: 6, Base: 100 * time.Millisecond, Seed: 7})
	if err != nil {
		t.Fatalf("stream with retry failed: %v", err)
	}
	if len(reports) == 0 {
		t.Fatal("retry exchange decoded nothing")
	}
	sent := payloadSet(recs)
	for _, r := range reports {
		if !sent[string(r.Payload)] {
			t.Errorf("unknown payload %x", r.Payload)
		}
	}
}

// TestGatewayShutdownDrains begins a stream, shuts the server down behind
// it, and checks the in-flight connection still completes its decodes.
func TestGatewayShutdownDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv := &Server{Log: testLogger(t), Registry: reg}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), ln) }()

	tr, recs := soakTrace(t, 919, 2)
	c, err := Dial(ln.Addr().String(), Hello{SF: 8, CR: 4})
	if err != nil {
		t.Fatal(err)
	}
	// First half now, then shut down, then the rest: the handler must be
	// allowed to finish the whole exchange.
	samples := tr.Antennas[0]
	if err := c.Send(samples[:len(samples)/2]); err != nil {
		t.Fatal(err)
	}
	// The shard exists once the handler is past the hello; only then is
	// the connection in flight rather than closed by the drain.
	waitShards(t, srv, 1)
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	// New connections must be refused once shutdown began.
	deadline := time.Now().Add(5 * time.Second)
	for {
		probe, derr := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		if derr != nil {
			break
		}
		probe.Close()
		if time.Now().After(deadline) {
			t.Error("listener still accepting after Shutdown")
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Send(samples[len(samples)/2:]); err != nil {
		t.Fatalf("in-flight send broken by shutdown: %v", err)
	}
	reports, err := c.Finish()
	if err != nil {
		t.Fatalf("in-flight finish broken by shutdown: %v", err)
	}
	if len(reports) == 0 {
		t.Error("drained connection decoded nothing")
	}
	sent := payloadSet(recs)
	for _, r := range reports {
		if !sent[string(r.Payload)] {
			t.Errorf("unknown payload %x", r.Payload)
		}
	}
	if err := <-shutDone; err != nil {
		t.Errorf("Shutdown = %v, want nil (drained)", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve = %v, want nil", err)
	}
}

// TestGatewayShutdownForceCloses checks the escalation: a wedged client
// that never finishes is force-closed when the drain budget expires.
func TestGatewayShutdownForceCloses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Log: testLogger(t)}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte(`{"sf": 8}` + "\n")) // valid hello, then wedge
	waitShards(t, srv, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown = %v, want DeadlineExceeded", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Serve did not return after forced shutdown")
	}
}

// TestGatewayShutdownClosesSilentConn checks that a client which connected
// but never sent its hello does not hold up the drain: Shutdown closes it
// and returns well inside its budget instead of waiting out the hello read
// timeout.
func TestGatewayShutdownClosesSilentConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv := &Server{Log: testLogger(t), Registry: reg}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	met := NewMetrics(reg)
	waitGaugeAtLeast(t, met.ConnectionsActive, 1)

	const budget = 10 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	begin := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown = %v, want nil", err)
	}
	if took := time.Since(begin); took > budget/4 {
		t.Errorf("Shutdown took %v with no decode in flight", took)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve = %v, want nil", err)
	}
	if n := met.HelloRejected.Value(); n != 0 {
		t.Errorf("hello_rejected = %d, want 0 for a connection closed by the drain", n)
	}
	waitGauge(t, met.ConnectionsActive, 0)
}

// --- small polling helpers -------------------------------------------------

func waitShards(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.ShardCount() < want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := srv.ShardCount(); n < want {
		t.Errorf("shards = %d, want ≥ %d", n, want)
	}
}

func waitCounter(t *testing.T, c *metrics.Counter, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Value() < want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if v := c.Value(); v < want {
		t.Errorf("counter = %d, want ≥ %d", v, want)
	}
}

func waitGauge(t *testing.T, g *metrics.Gauge, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Value() != want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if v := g.Value(); v != want {
		t.Errorf("gauge = %d, want %d", v, want)
	}
}

func waitGaugeAtLeast(t *testing.T, g *metrics.Gauge, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Value() < want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if v := g.Value(); v < want {
		t.Errorf("gauge = %d, want ≥ %d", v, want)
	}
}

// connLog is a tracer sink that keeps the exported JSONL for counting conn
// events; the server writes it while the test reads.
type connLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *connLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// count returns how many exported conn records carry event.
func (l *connLog) count(event string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range bytes.Split(l.buf.Bytes(), []byte("\n")) {
		var ev obs.ConnEvent
		if json.Unmarshal(line, &ev) == nil && ev.Type == obs.TypeConn && ev.Event == event {
			n++
		}
	}
	return n
}

func waitConnEvents(t *testing.T, l *connLog, event string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for l.count(event) < want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := l.count(event); n < want {
		t.Errorf("obs %s events = %d, want ≥ %d", event, n, want)
	}
}

// streamMetricsOn returns the streamer instruments registered on reg (the
// registry get-or-create contract makes this the server's own handles).
func streamMetricsOn(reg *metrics.Registry) *streamMetricsView {
	return &streamMetricsView{NonFinite: reg.Counter("tnb_stream_nonfinite_samples_total")}
}

type streamMetricsView struct {
	NonFinite *metrics.Counter
}
