package gateway

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"
)

// Client streams IQ samples to a gateway and collects reports. Its Send
// and Finish surface the server's typed verdicts: an error reply on the
// wire comes back as a *GatewayError instead of an opaque io.EOF or
// connection reset.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	// br sits between conn and dec so reply bytes can be peeked at under
	// a deadline without poisoning the decoder: json.Decoder keeps the
	// first I/O error it sees forever, bufio.Reader clears it.
	br  *bufio.Reader
	dec *json.Decoder
}

// sendChunkBytes bounds each Send write so a mid-stream server verdict is
// noticed within one chunk instead of after megabytes of doomed writes.
const sendChunkBytes = 1 << 16

// Backoff is a bounded exponential retry policy. Each delay is spread
// uniformly over ±backoffJitter of itself, and the doubling stops at
// backoffMax. The zero value selects the defaults noted per field;
// Attempts ≤ 1 disables retry.
type Backoff struct {
	// Attempts is the total number of tries (0 → 4).
	Attempts int
	// Base is the delay before the second try (0 → 50ms); each further
	// try doubles it.
	Base time.Duration
	// Seed drives the jitter stream, so retry schedules are reproducible
	// (0 → 1).
	Seed int64
}

const (
	backoffMax    = 2 * time.Second
	backoffJitter = 0.25
)

func (b Backoff) attempts() int {
	if b.Attempts <= 0 {
		return 4
	}
	return b.Attempts
}

// delays returns the deterministic sleep schedule between tries.
func (b Backoff) delays() []time.Duration {
	base, seed := b.Base, b.Seed
	if base == 0 {
		base = 50 * time.Millisecond
	}
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, 0, b.attempts()-1)
	d := base
	for i := 1; i < b.attempts(); i++ {
		j := d + time.Duration((rng.Float64()*2-1)*backoffJitter*float64(d))
		if j < 0 {
			j = 0
		}
		out = append(out, j)
		d = min(2*d, backoffMax)
	}
	return out
}

// Dial connects to a gateway and sends the hello line.
func Dial(addr string, hello Hello) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}
	c.dec = json.NewDecoder(c.br)
	hb, err := json.Marshal(hello)
	if err != nil {
		conn.Close()
		return nil, err
	}
	hb = append(hb, '\n')
	if _, err := c.bw.Write(hb); err != nil {
		conn.Close()
		return nil, err
	}
	return c, c.bw.Flush()
}

// DialBackoff dials with bounded exponential backoff: transient transport
// errors and retryable server verdicts (overload shedding) are retried per
// the policy; a permanent verdict (e.g. bad_hello) fails immediately.
//
// Note the shed probe costs one connection: the server's verdict only
// arrives after the hello, so DialBackoff peeks for an early error reply
// after connecting.
func DialBackoff(addr string, hello Hello, b Backoff) (*Client, error) {
	delays := b.delays()
	var lastErr error
	for i := 0; i < b.attempts(); i++ {
		if i > 0 {
			time.Sleep(delays[i-1])
		}
		c, err := Dial(addr, hello)
		if err == nil {
			// A rejecting or shedding server answers the hello
			// immediately; surface that verdict now so callers can back
			// off instead of streaming into a closed door.
			if ge := c.peekErrorReply(200 * time.Millisecond); ge != nil {
				c.Close()
				err = ge
			} else {
				return c, nil
			}
		}
		lastErr = err
		var ge *GatewayError
		if errors.As(err, &ge) && !ge.Retryable() {
			return nil, err
		}
	}
	return nil, fmt.Errorf("gateway: dial %s: attempts exhausted: %w", addr, lastErr)
}

// peekErrorReply checks whether the server has already written an error
// line (rejection verdicts arrive right after the hello, before any
// report can exist). The probe peeks through the bufio layer so a quiet
// wire leaves the decoder clean.
func (c *Client) peekErrorReply(wait time.Duration) *GatewayError {
	c.conn.SetReadDeadline(time.Now().Add(wait))
	defer c.conn.SetReadDeadline(time.Time{})
	if _, err := c.br.Peek(1); err != nil {
		return nil // nothing pending: a healthy accept
	}
	var raw json.RawMessage
	if err := c.dec.Decode(&raw); err != nil {
		return nil
	}
	return parseErrorReply(raw)
}

// Send streams samples as int16 IQ in bounded chunks. A write failure is
// upgraded to the server's typed verdict when one is on the wire (e.g. the
// sample-limit reply that preceded the close).
func (c *Client) Send(samples []complex128) error {
	var quad [4]byte
	written := 0
	for _, v := range samples {
		binary16(quad[0:2], real(v))
		binary16(quad[2:4], imag(v))
		if _, err := c.bw.Write(quad[:]); err != nil {
			return c.upgradeWriteError(err)
		}
		written += 4
		if written >= sendChunkBytes {
			written = 0
			if err := c.bw.Flush(); err != nil {
				return c.upgradeWriteError(err)
			}
		}
	}
	return nil
}

// upgradeWriteError turns a broken-pipe style failure into the server's
// typed reply when one can be read within a short grace window. Report
// lines that raced ahead of the verdict are skipped; the connection is
// already failed, so they are not deliverable in order anyway.
func (c *Client) upgradeWriteError(orig error) error {
	c.conn.SetReadDeadline(time.Now().Add(time.Second))
	defer c.conn.SetReadDeadline(time.Time{})
	for {
		if _, err := c.br.Peek(1); err != nil {
			return orig
		}
		var raw json.RawMessage
		if err := c.dec.Decode(&raw); err != nil {
			return orig
		}
		if ge := parseErrorReply(raw); ge != nil {
			return ge
		}
	}
}

// Finish flushes, half-closes the write side and drains all reports until
// the server closes the connection. A server error line comes back as a
// *GatewayError alongside the reports received before it.
func (c *Client) Finish() ([]Report, error) {
	if err := c.bw.Flush(); err != nil {
		return nil, c.upgradeWriteError(err)
	}
	if tc, ok := c.conn.(*net.TCPConn); ok {
		if err := tc.CloseWrite(); err != nil {
			return nil, err
		}
	}
	var out []Report
	for {
		var raw json.RawMessage
		if err := c.dec.Decode(&raw); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return out, err
		}
		if ge := parseErrorReply(raw); ge != nil {
			c.conn.Close()
			return out, ge
		}
		var r Report
		if err := json.Unmarshal(raw, &r); err != nil {
			return out, fmt.Errorf("gateway: malformed report line: %w", err)
		}
		out = append(out, r)
	}
	return out, c.conn.Close()
}

// Close releases the connection without draining reports.
func (c *Client) Close() error { return c.conn.Close() }

// Stream is the resilient one-shot exchange: dial with backoff, send all
// samples in chunks, finish, and — when the transport dies or the server
// sheds before any report arrived — redial and resend from the start
// (chunked resend), bounded by the same policy. A permanent server verdict
// (bad hello, sample limit) fails immediately.
func Stream(addr string, hello Hello, samples []complex128, b Backoff) ([]Report, error) {
	delays := b.delays()
	var lastErr error
	for i := 0; i < b.attempts(); i++ {
		if i > 0 {
			time.Sleep(delays[i-1])
		}
		reports, err := func() ([]Report, error) {
			c, err := DialBackoff(addr, hello, Backoff{Attempts: 1})
			if err != nil {
				return nil, err
			}
			if err := c.Send(samples); err != nil {
				c.Close()
				return nil, err
			}
			return c.Finish()
		}()
		if err == nil {
			return reports, nil
		}
		lastErr = err
		var ge *GatewayError
		if errors.As(err, &ge) && !ge.Retryable() {
			return reports, err
		}
		if len(reports) > 0 {
			// Progress was made; a resend would duplicate reports.
			return reports, err
		}
	}
	return nil, fmt.Errorf("gateway: stream to %s: attempts exhausted: %w", addr, lastErr)
}

// binary16 stores v as a little-endian fixed-point int16 (the wire format).
func binary16(dst []byte, v float64) {
	u := uint16(clampI16(v * 4096))
	dst[0] = byte(u)
	dst[1] = byte(u >> 8)
}

func clampI16(v float64) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	// NaN fails both comparisons; map it to silence so the wire encoding
	// is total (int16 cannot carry a NaN anyway).
	if v != v {
		return 0
	}
	return int16(v)
}
