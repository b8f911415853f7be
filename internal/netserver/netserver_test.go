package netserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"tnb/internal/lorawan"
	"tnb/internal/metrics"
)

func testKey(b byte) []byte {
	k := make([]byte, 16)
	for i := range k {
		k[i] = b
	}
	return k
}

func testDevice(i int) Device {
	return Device{
		DevEUI: lorawan.EUI(0xA000 + uint64(i)),
		AppEUI: lorawan.EUI(0xB000),
		AppKey: testKey(byte(0x10 + i)),
		Tenant: "acme",
	}
}

func mustServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func joinWire(t testing.TB, dev Device, nonce uint16) []byte {
	t.Helper()
	jr := &lorawan.JoinRequestFrame{AppEUI: dev.AppEUI, DevEUI: dev.DevEUI, DevNonce: nonce}
	w, err := jr.Marshal(dev.AppKey)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func dataWire(t testing.TB, addr lorawan.DevAddr, fcnt uint16, nwk, app, payload []byte) []byte {
	t.Helper()
	f := &lorawan.DataFrame{
		MType: lorawan.UnconfirmedDataUp, DevAddr: addr, FCnt: fcnt,
		HasPort: true, FPort: 7, FRMPayload: payload,
	}
	w, err := f.Marshal(nwk, app)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func ingest(t testing.TB, s *Server, batch ...Uplink) []Event {
	t.Helper()
	evs, err := s.Ingest(batch)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func flush(t testing.TB, s *Server) []Event {
	t.Helper()
	evs, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestJoinFlow walks the full OTAA exchange end to end: two gateways hear
// the same join request, the netserver delivers one join with the best-SNR
// gateway credited, the device parses the returned JoinAccept with its
// AppKey and derives the same session keys — proven by a data frame built
// device-side decrypting to the original payload server-side.
func TestJoinFlow(t *testing.T) {
	dev := testDevice(1)
	s := mustServer(t, Config{Devices: []Device{dev}, Workers: 1})

	jw := joinWire(t, dev, 0x0001)
	evs := ingest(t, s,
		Uplink{GatewayID: "gw-b", Channel: 2, SF: 9, TimeSec: 0.00, SNRdB: -4, Payload: jw},
		Uplink{GatewayID: "gw-a", Channel: 2, SF: 9, TimeSec: 0.05, SNRdB: 3, Payload: jw},
	)
	if len(evs) != 0 {
		t.Fatalf("join delivered before its dedup window closed: %+v", evs)
	}
	evs = flush(t, s)
	if len(evs) != 1 || evs[0].Type != "join" {
		t.Fatalf("events after flush = %+v, want one join", evs)
	}
	join := evs[0]
	if join.Copies != 2 || join.Gateway != "gw-a" || join.SNRdB != 3 {
		t.Errorf("join credited %q (snr %v, copies %d), want gw-a/3/2", join.Gateway, join.SNRdB, join.Copies)
	}
	if want := []string{"gw-a", "gw-b"}; fmt.Sprint(join.Gateways) != fmt.Sprint(want) {
		t.Errorf("join gateways = %v, want %v", join.Gateways, want)
	}
	if join.Channel != 2 || join.SF != 9 {
		t.Errorf("join shard = c%d_sf%d, want c2_sf9", join.Channel, join.SF)
	}

	// Device side: decrypt the accept, derive keys, send an uplink.
	acc, err := lorawan.ParseJoinAccept(join.JoinAccept, dev.AppKey)
	if err != nil {
		t.Fatalf("device cannot parse the join accept: %v", err)
	}
	if acc.DevAddr.String() != join.DevAddr {
		t.Errorf("accept DevAddr %s, event says %s", acc.DevAddr, join.DevAddr)
	}
	nwk, app, err := lorawan.DeriveSessionKeys(dev.AppKey, acc.AppNonce, acc.NetID, 0x0001)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello tenant")
	dw := dataWire(t, acc.DevAddr, 1, nwk, app, payload)
	ingest(t, s, Uplink{GatewayID: "gw-a", Channel: 2, SF: 9, TimeSec: 1.0, SNRdB: 2, Payload: dw})
	evs = flush(t, s)
	if len(evs) != 1 || evs[0].Type != "delivery" {
		t.Fatalf("uplink events = %+v, want one delivery", evs)
	}
	if !bytes.Equal(evs[0].Payload, payload) {
		t.Errorf("delivered payload %q, want %q", evs[0].Payload, payload)
	}
	if evs[0].FCnt != 1 || evs[0].FPort != 7 || evs[0].Tenant != "acme" {
		t.Errorf("delivery metadata: %+v", evs[0])
	}
}

// TestDedupBestSNR: three copies, two tied for best SNR — the tie breaks
// toward the lexicographically smaller gateway, so arrival order of the
// tied copies cannot change the outcome.
func TestDedupBestSNR(t *testing.T) {
	dev := testDevice(2)
	s := mustServer(t, Config{Devices: []Device{dev}, Workers: 1})
	jw := joinWire(t, dev, 7)
	ingest(t, s,
		Uplink{GatewayID: "gw-c", TimeSec: 0.00, SNRdB: 5, Payload: jw},
		Uplink{GatewayID: "gw-b", TimeSec: 0.01, SNRdB: 9, Payload: jw},
		Uplink{GatewayID: "gw-a", TimeSec: 0.02, SNRdB: 9, Payload: jw},
	)
	evs := flush(t, s)
	if len(evs) != 1 {
		t.Fatalf("events = %+v, want one join", evs)
	}
	if evs[0].Gateway != "gw-a" || evs[0].SNRdB != 9 || evs[0].Copies != 3 {
		t.Errorf("best copy = %q/%v (copies %d), want gw-a/9/3", evs[0].Gateway, evs[0].SNRdB, evs[0].Copies)
	}
	st := s.Stats()
	if st.DupSuppressed != 2 {
		t.Errorf("dup_suppressed = %d, want 2", st.DupSuppressed)
	}
}

// TestDedupWindowExpiry: a copy arriving after the window closed is a new
// transmission as far as the netserver can tell — here it is a DevNonce
// replay and must be refused, not merged.
func TestDedupWindowExpiry(t *testing.T) {
	dev := testDevice(3)
	s := mustServer(t, Config{Devices: []Device{dev}, DedupWindowSec: 0.2, Workers: 1})
	jw := joinWire(t, dev, 9)
	ingest(t, s, Uplink{GatewayID: "gw-a", TimeSec: 0.0, SNRdB: 1, Payload: jw})
	// The late copy's commit first expires the original window (join
	// delivered), then finds its own nonce already burned — both events
	// come back from the same Ingest call.
	evs := ingest(t, s, Uplink{GatewayID: "gw-b", TimeSec: 1.0, SNRdB: 8, Payload: jw})
	if len(evs) != 2 || evs[0].Type != "join" || evs[0].Copies != 1 || evs[0].Gateway != "gw-a" {
		t.Fatalf("window-expiry events = %+v, want the gw-a join then a drop", evs)
	}
	if evs[1].Type != "drop" || evs[1].Reason != ReasonReplayedDevNonce {
		t.Fatalf("late copy event = %+v, want a replayed_devnonce drop", evs[1])
	}
	if evs := flush(t, s); len(evs) != 0 {
		t.Fatalf("flush after window expiry = %+v, want empty", evs)
	}
}

// TestDevNonceReplay: reusing a DevNonce after a completed join is refused.
func TestDevNonceReplay(t *testing.T) {
	dev := testDevice(4)
	s := mustServer(t, Config{Devices: []Device{dev}, Workers: 1})
	jw := joinWire(t, dev, 42)
	ingest(t, s, Uplink{GatewayID: "gw-a", TimeSec: 0, Payload: jw})
	if evs := flush(t, s); len(evs) != 1 || evs[0].Type != "join" {
		t.Fatalf("first join events = %+v", evs)
	}
	// The replay is refused immediately at commit, not windowed.
	evs := ingest(t, s, Uplink{GatewayID: "gw-a", TimeSec: 5, Payload: jw})
	if len(evs) != 1 || evs[0].Reason != ReasonReplayedDevNonce {
		t.Fatalf("replay events = %+v, want replayed_devnonce", evs)
	}
	// A fresh nonce still joins (and replaces the session).
	ingest(t, s, Uplink{GatewayID: "gw-a", TimeSec: 10, Payload: joinWire(t, dev, 43)})
	if evs := flush(t, s); len(evs) != 1 || evs[0].Type != "join" {
		t.Fatalf("rejoin events = %+v", evs)
	}
	if st := s.Stats(); st.Sessions != 1 || st.Joins != 2 {
		t.Errorf("sessions = %d joins = %d, want 1 and 2", st.Sessions, st.Joins)
	}
}

// activate joins one device and returns its session coordinates.
func activate(t testing.TB, s *Server, dev Device, nonce uint16, at float64) (lorawan.DevAddr, []byte, []byte) {
	t.Helper()
	ingest(t, s, Uplink{GatewayID: "gw-a", TimeSec: at, SNRdB: 1, Payload: joinWire(t, dev, nonce)})
	evs := flush(t, s)
	if len(evs) != 1 || evs[0].Type != "join" {
		t.Fatalf("activation events = %+v", evs)
	}
	acc, err := lorawan.ParseJoinAccept(evs[0].JoinAccept, dev.AppKey)
	if err != nil {
		t.Fatal(err)
	}
	nwk, app, err := lorawan.DeriveSessionKeys(dev.AppKey, acc.AppNonce, acc.NetID, nonce)
	if err != nil {
		t.Fatal(err)
	}
	return acc.DevAddr, nwk, app
}

// TestFCntReplay: a frame counter at or below the last delivered one is
// refused, whether it arrives after delivery or inside the same window
// with a different payload.
func TestFCntReplay(t *testing.T) {
	dev := testDevice(5)
	s := mustServer(t, Config{Devices: []Device{dev}, Workers: 1})
	addr, nwk, app := activate(t, s, dev, 1, 0)

	ingest(t, s, Uplink{GatewayID: "gw-a", TimeSec: 1, Payload: dataWire(t, addr, 3, nwk, app, []byte("x"))})
	if evs := flush(t, s); len(evs) != 1 || evs[0].Type != "delivery" {
		t.Fatalf("first uplink events = %+v", evs)
	}
	// Replay after delivery: same counter, refused immediately at commit.
	evs := ingest(t, s, Uplink{GatewayID: "gw-a", TimeSec: 2, Payload: dataWire(t, addr, 3, nwk, app, []byte("x"))})
	if len(evs) != 1 || evs[0].Reason != ReasonReplayedFCnt {
		t.Fatalf("post-delivery replay events = %+v, want replayed_fcnt", evs)
	}
	// Same counter, different payloads, both inside one window: distinct
	// dedup keys, so both frames pend — only the first may deliver.
	ingest(t, s,
		Uplink{GatewayID: "gw-a", TimeSec: 3.00, Payload: dataWire(t, addr, 4, nwk, app, []byte("a"))},
		Uplink{GatewayID: "gw-b", TimeSec: 3.01, Payload: dataWire(t, addr, 4, nwk, app, []byte("b"))},
	)
	evs = flush(t, s)
	if len(evs) != 2 || evs[0].Type != "delivery" || evs[1].Reason != ReasonReplayedFCnt {
		t.Fatalf("same-window conflict events = %+v, want delivery then replayed_fcnt", evs)
	}
	if string(evs[0].Payload) != "a" {
		t.Errorf("delivered %q, want the first-heard payload \"a\"", evs[0].Payload)
	}
}

// TestQuota: the tenant bucket admits its burst, then turns deliveries
// into quota_exceeded drops until logical time refills it.
func TestQuota(t *testing.T) {
	dev := testDevice(6)
	s := mustServer(t, Config{
		Devices: []Device{dev},
		Quotas:  map[string]Quota{"acme": {RatePerSec: 0.1, Burst: 1}},
		Workers: 1,
	})
	addr, nwk, app := activate(t, s, dev, 1, 0)
	// The second commit (t=1.5) expires the first frame's window (1.2), so
	// its delivery comes back from Ingest; the drop arrives on Flush.
	evs := ingest(t, s,
		Uplink{GatewayID: "gw-a", TimeSec: 1.0, Payload: dataWire(t, addr, 1, nwk, app, []byte("a"))},
		Uplink{GatewayID: "gw-a", TimeSec: 1.5, Payload: dataWire(t, addr, 2, nwk, app, []byte("b"))},
	)
	evs = append(evs, flush(t, s)...)
	if len(evs) != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Type != "delivery" {
		t.Errorf("first uplink: %+v, want delivery", evs[0])
	}
	if evs[1].Type != "drop" || evs[1].Reason != ReasonQuotaExceeded || evs[1].Tenant != "acme" {
		t.Errorf("second uplink: %+v, want quota_exceeded for acme", evs[1])
	}
	// 10 logical seconds refill one token.
	ingest(t, s, Uplink{GatewayID: "gw-a", TimeSec: 12, Payload: dataWire(t, addr, 3, nwk, app, []byte("c"))})
	if evs := flush(t, s); len(evs) != 1 || evs[0].Type != "delivery" {
		t.Fatalf("post-refill events = %+v, want delivery", evs)
	}
	if st := s.Stats(); st.QuotaDropped != 1 {
		t.Errorf("quota_dropped = %d, want 1", st.QuotaDropped)
	}
}

// TestDropReasons covers the immediate (non-windowed) drop taxonomy.
func TestDropReasons(t *testing.T) {
	dev := testDevice(7)
	s := mustServer(t, Config{Devices: []Device{dev}, Workers: 1})
	stranger := testDevice(8) // not provisioned

	badMIC := joinWire(t, dev, 1)
	badMIC[len(badMIC)-1] ^= 0xFF

	cases := []struct {
		name    string
		payload []byte
		reason  string
	}{
		{"empty", nil, ReasonMalformed},
		{"short_join", []byte{0x00, 1, 2}, ReasonMalformed},
		{"downlink_mtype", []byte{uint8(lorawan.JoinAccept) << 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, ReasonUnsupportedMType},
		{"unknown_device", joinWire(t, stranger, 1), ReasonUnknownDevice},
		{"bad_mic", badMIC, ReasonBadMIC},
		{"unknown_devaddr", dataWire(t, 0x26FFFFFF, 1, testKey(1), testKey(2), []byte("x")), ReasonUnknownDevAddr},
	}
	for i, tc := range cases {
		evs := ingest(t, s, Uplink{GatewayID: "gw-a", TimeSec: float64(i), Payload: tc.payload})
		if len(evs) != 1 || evs[0].Type != "drop" || evs[0].Reason != tc.reason {
			t.Errorf("%s: events = %+v, want an immediate %s drop", tc.name, evs, tc.reason)
		}
	}
	st := s.Stats()
	if st.Dropped != uint64(len(cases)) {
		t.Errorf("dropped = %d, want %d", st.Dropped, len(cases))
	}
	for _, tc := range cases {
		if st.DropReasons[tc.reason] == 0 {
			t.Errorf("drop reason %s never counted", tc.reason)
		}
	}
}

// buildMixedBatch builds a worker-order-sensitive workload: joins, a data
// frame that verifies only after its same-batch join commits, gateway
// copies, and garbage. Determinism demands identical events at any width.
func buildMixedBatch(t testing.TB, devs []Device) []Uplink {
	t.Helper()
	var batch []Uplink
	at := 0.0
	push := func(gw string, snr float64, payload []byte) {
		batch = append(batch, Uplink{GatewayID: gw, Channel: len(batch) % 3, SF: 7 + len(batch)%3, TimeSec: at, SNRdB: snr, Payload: payload})
		at += 0.013
	}
	for i, d := range devs {
		jw := joinWire(t, d, uint16(100+i))
		push("gw-a", float64(i), jw)
		push("gw-b", float64(i)+0.5, jw) // copy: dedup merge
	}
	// First uplinks ride in the same logical stream: the join for device i
	// commits when the clock passes its window, after which the session
	// exists for the data frame (the vDefer → serial re-verify path once
	// these land in one batch). Keys are deterministic: join i is the
	// (i+1)-th join, so AppNonce = DevAddr counter = i+1.
	for i, d := range devs {
		addr := lorawan.DevAddr(DevAddrBase | uint32(i+1))
		nwk, app, err := lorawan.DeriveSessionKeys(d.AppKey, uint32(i+1), NetID, uint16(100+i))
		if err != nil {
			t.Fatal(err)
		}
		at += 0.3 // past the dedup window: the join has committed
		push("gw-a", 2, dataWire(t, addr, 1, nwk, app, []byte(fmt.Sprintf("data-%d", i))))
		push("gw-c", 6, dataWire(t, addr, 1, nwk, app, []byte(fmt.Sprintf("data-%d", i))))
	}
	push("gw-a", 0, []byte("not lorawan"))
	push("gw-b", 0, nil)
	return batch
}

// TestDeterministicAcrossWorkers pins the core Ingest contract: the event
// stream is byte-identical at every verification width, single batch or
// split arbitrarily.
func TestDeterministicAcrossWorkers(t *testing.T) {
	devs := []Device{testDevice(1), testDevice(2), testDevice(3)}
	run := func(workers, chunk int) []byte {
		s := mustServer(t, Config{Devices: []Device{devs[0], devs[1], devs[2]}, Workers: workers})
		batch := buildMixedBatch(t, devs)
		var evs []Event
		for i := 0; i < len(batch); i += chunk {
			end := i + chunk
			if end > len(batch) {
				end = len(batch)
			}
			evs = append(evs, ingest(t, s, batch[i:end]...)...)
		}
		evs = append(evs, flush(t, s)...)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	want := run(1, 1<<30)
	if !bytes.Contains(want, []byte(`"type":"join"`)) || !bytes.Contains(want, []byte(`"type":"delivery"`)) {
		t.Fatalf("reference run missing joins or deliveries:\n%s", want)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, chunk := range []int{1, 3, 1 << 30} {
			if got := run(workers, chunk); !bytes.Equal(got, want) {
				t.Errorf("workers=%d chunk=%d diverged from the serial run:\n got: %s\nwant: %s", workers, chunk, got, want)
			}
		}
	}
}

// TestAdvanceTo delivers pending frames as logical time passes with the
// uplink stream quiet, and refuses to run the clock backwards.
func TestAdvanceTo(t *testing.T) {
	dev := testDevice(9)
	s := mustServer(t, Config{Devices: []Device{dev}, DedupWindowSec: 0.5, Workers: 1})
	ingest(t, s, Uplink{GatewayID: "gw-a", TimeSec: 1.0, Payload: joinWire(t, dev, 1)})
	evs, err := s.AdvanceTo(1.2)
	if err != nil || len(evs) != 0 {
		t.Fatalf("AdvanceTo(1.2) = %v, %v; window should still be open", evs, err)
	}
	evs, err = s.AdvanceTo(0.5) // backwards: clamps to the current clock
	if err != nil || len(evs) != 0 {
		t.Fatalf("AdvanceTo(0.5) = %v, %v", evs, err)
	}
	evs, err = s.AdvanceTo(1.5)
	if err != nil || len(evs) != 1 || evs[0].Type != "join" {
		t.Fatalf("AdvanceTo(1.5) = %v, %v; want the join delivered", evs, err)
	}
	if evs[0].TimeSec != 1.5 {
		t.Errorf("join delivered at %v, want the window expiry 1.5", evs[0].TimeSec)
	}
}

// TestConcurrentUseGuard: an overlapping driver call is refused with the
// typed sentinel instead of racing the pipeline state.
func TestConcurrentUseGuard(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	s.inUse.Store(true)
	for name, call := range map[string]func() ([]Event, error){
		"Ingest":    func() ([]Event, error) { return s.Ingest(nil) },
		"AdvanceTo": func() ([]Event, error) { return s.AdvanceTo(1) },
		"Flush":     func() ([]Event, error) { return s.Flush() },
	} {
		if _, err := call(); err != ErrConcurrentUse {
			t.Errorf("%s under contention: %v, want ErrConcurrentUse", name, err)
		}
	}
	s.inUse.Store(false)
	if _, err := s.Ingest(nil); err != nil {
		t.Errorf("Ingest after release: %v", err)
	}
}

// TestConfigRejects: bad provisioning fails at New, not at traffic time.
func TestConfigRejects(t *testing.T) {
	if _, err := New(Config{Devices: []Device{{DevEUI: 1, AppKey: []byte("short")}}}); err == nil {
		t.Error("short AppKey accepted")
	}
	d := testDevice(1)
	if _, err := New(Config{Devices: []Device{d, d}}); err == nil {
		t.Error("duplicate DevEUI accepted")
	}
}

// TestStatsAndHandler: the ops snapshot and its HTTP surface agree with
// the traffic that flowed.
func TestStatsAndHandler(t *testing.T) {
	reg := metrics.NewRegistry()
	dev := testDevice(1)
	s := mustServer(t, Config{Devices: []Device{dev}, Workers: 1, Metrics: NewMetrics(reg)})
	jw := joinWire(t, dev, 1)
	ingest(t, s,
		Uplink{GatewayID: "gw-a", Channel: 1, SF: 8, TimeSec: 0.00, SNRdB: 1, Payload: jw},
		Uplink{GatewayID: "gw-b", Channel: 1, SF: 8, TimeSec: 0.01, SNRdB: 2, Payload: jw},
	)
	flush(t, s)

	st := s.Stats()
	if st.Uplinks != 2 || st.Joins != 1 || st.DupSuppressed != 1 || st.Sessions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.Shards) != 1 || st.Shards[0] != (ShardStats{Channel: 1, SF: 8, Uplinks: 2, Delivered: 1}) {
		t.Errorf("shard stats = %+v", st.Shards)
	}
	if st.Gateways["gw-a"] != 1 || st.Gateways["gw-b"] != 1 {
		t.Errorf("gateway stats = %+v", st.Gateways)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/netserver", nil))
	var got Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("/netserver is not JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if got.Joins != st.Joins || got.Uplinks != st.Uplinks || got.Sessions != st.Sessions {
		t.Errorf("/netserver = %+v, Stats() = %+v", got, st)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"tnb_netserver_uplinks_total":        2,
		"tnb_netserver_joins_total":          1,
		"tnb_netserver_dup_suppressed_total": 1,
		"tnb_netserver_sessions_active":      1,
		"tnb_netserver_dedup_pending":        0,
	} {
		if got := snap[name]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("metric %s = %v, want %d", name, got, want)
		}
	}
}

// BenchmarkNetserverIngest measures the verify+commit pipeline at several
// widths over a realistic mixed batch, reporting packets/sec and the
// dedup-table high-water memory.
func BenchmarkNetserverIngest(b *testing.B) {
	devs := []Device{testDevice(1), testDevice(2), testDevice(3)}
	batch := buildMixedBatch(b, devs)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var peakBytes int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := mustServer(b, Config{Devices: devs, Workers: workers})
				if _, err := s.Ingest(batch); err != nil {
					b.Fatal(err)
				}
				if db := s.Stats().DedupBytes; db > peakBytes {
					peakBytes = db
				}
				if _, err := s.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "packets/s")
			b.ReportMetric(float64(peakBytes), "dedup-bytes")
		})
	}
}
