// Package adapter connects the test driver to implementations under test
// across process boundaries: a TCP server that exposes any tiots.IUT (for
// hosting a simulated or wrapped real implementation), and a TCP client
// that implements tiots.IUT for the driver side. The wire protocol is
// newline-delimited JSON under virtual time, so test runs are exactly
// reproducible — the adapter transports the paper's Fig. 1/Fig. 4 arrows
// "input", "output" and time.
//
// The protocol is transport-agnostic: Message, Apply, ServeConnIdle and
// ClientOn expose it for other carriers, e.g. the service layer hosting
// online test sessions on a control connection (the daemon drives the
// protocol through ClientOn, the remote implementation answers through
// Apply).
//
// Concurrency contract: Serve owns one IUT and keeps the exclusive serial
// session discipline (one connection at a time); ServeFactory builds a
// fresh IUT per connection and accepts any number of concurrent sessions —
// what the campaign matrix and the service layer dial. A Client (or
// ClientOn endpoint) is single-caller: one driver per connection.
package adapter

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tigatest/internal/tiots"
)

// Deadliner is the deadline-control subset of net.Conn the idle-timeout
// support needs. Streams that do not implement it are served without I/O
// deadlines (ServeConnIdle then never times out).
type Deadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Message is one protocol frame.
type Message struct {
	Type  string `json:"type"`            // "reset", "seed", "offer", "advance", "ok", "output", "quiet", "error"
	Chan  int    `json:"chan,omitempty"`  // channel index for offer/output
	Ticks int64  `json:"ticks,omitempty"` // advance budget / output offset
	Seed  int64  `json:"seed,omitempty"`  // rng seed for randomized IUTs
	Err   string `json:"err,omitempty"`
}

// Apply executes one protocol request against the implementation and
// returns the reply frame. It is the server side of the protocol, factored
// out so any transport can host a session.
func Apply(iut tiots.IUT, m Message) Message {
	switch m.Type {
	case "reset":
		iut.Reset()
		return Message{Type: "ok"}
	case "seed":
		// Randomized implementations accept a per-run seed; deterministic
		// ones simply have nothing to reseed.
		if s, ok := iut.(tiots.Seeder); ok {
			s.Seed(m.Seed)
		}
		return Message{Type: "ok"}
	case "offer":
		if err := iut.Offer(m.Chan); err != nil {
			return Message{Type: "error", Err: err.Error()}
		}
		return Message{Type: "ok"}
	case "advance":
		out := iut.Advance(m.Ticks)
		if out == nil {
			return Message{Type: "quiet"}
		}
		return Message{Type: "output", Chan: out.Chan, Ticks: out.After}
	default:
		return Message{Type: "error", Err: "unknown message " + m.Type}
	}
}

// Server hosts implementations on a listener. In factory mode
// (ServeFactory) every accepted connection gets its own IUT instance and
// its own serving goroutine, so many test drivers — e.g. parallel
// campaign cells — run concurrent, fully isolated sessions. The legacy
// single-IUT mode (Serve) keeps the exclusive-owner discipline: one
// connection is served at a time and later dials queue behind it.
type Server struct {
	factory func() tiots.IUT
	// serial serves sessions one at a time on a single shared IUT (the
	// pre-factory behavior: test drivers own the IUT exclusively).
	serial bool
	ln     net.Listener

	mu     sync.Mutex
	closed bool
	idle   time.Duration
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") exposing one shared
// IUT; sessions are served sequentially because concurrent drivers would
// corrupt its single state. The chosen address is available via Addr.
func Serve(addr string, iut tiots.IUT) (*Server, error) {
	return serve(addr, func() tiots.IUT { return iut }, true)
}

// ServeFactory starts a server on addr that builds a fresh IUT per
// connection and serves every session concurrently. Use this to host
// implementations for parallel test campaigns.
func ServeFactory(addr string, factory func() tiots.IUT) (*Server, error) {
	return serve(addr, factory, false)
}

func serve(addr string, factory func() tiots.IUT, serial bool) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{factory: factory, serial: serial, ln: ln}
	go s.loop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetIdleTimeout bounds every frame exchange of subsequently served
// sessions: a peer that stalls longer than d mid-session is disconnected
// instead of pinning the session (and, in serial mode, every later
// dialer). 0 — the default — preserves the wait-forever semantics.
func (s *Server) SetIdleTimeout(d time.Duration) {
	s.mu.Lock()
	s.idle = d
	s.mu.Unlock()
}

func (s *Server) idleTimeout() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idle
}

// Close stops accepting sessions. Active sessions end when their
// connections do (drivers close their side after a run).
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.ln.Close()
}

func (s *Server) loop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.closed
			s.mu.Unlock()
			if done {
				return
			}
			continue
		}
		if s.serial {
			s.handle(conn, s.factory())
		} else {
			go s.handle(conn, s.factory())
		}
	}
}

func (s *Server) handle(conn net.Conn, iut tiots.IUT) {
	defer conn.Close()
	_ = ServeConnIdle(conn, iut, s.idleTimeout())
}

// ServeConnIdle serves one session of the wire protocol on an arbitrary
// stream until it fails to decode (connection closed or foreign bytes),
// without closing the stream. It bounds every frame exchange when idle > 0
// and the stream controls deadlines (Deadliner — every net.Conn does): a
// read or write that stalls past idle ends the session with the deadline
// error. It returns nil on clean end-of-stream and the terminating error
// otherwise (idle expiries satisfy net.Error.Timeout); write errors
// terminate the exchange rather than being silently dropped, so a
// half-closed peer is detected on the reply, not one stalled read later.
func ServeConnIdle(rw io.ReadWriter, iut tiots.IUT, idle time.Duration) error {
	dec := json.NewDecoder(bufio.NewReader(rw))
	enc := json.NewEncoder(rw)
	dl, hasDL := rw.(Deadliner)
	arm := func() {
		if hasDL && idle > 0 {
			now := time.Now()
			_ = dl.SetReadDeadline(now.Add(idle))
			_ = dl.SetWriteDeadline(now.Add(idle))
		}
	}
	for {
		arm()
		var m Message
		if err := dec.Decode(&m); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		arm()
		if err := enc.Encode(Apply(iut, m)); err != nil {
			return err
		}
	}
}

// Client is a tiots.IUT speaking the adapter protocol over TCP (Dial) or
// over any existing encoder/decoder pair (ClientOn).
type Client struct {
	conn net.Conn // nil for ClientOn clients; their stream has its own owner
	dec  *json.Decoder
	enc  *json.Encoder
	err  error
	dl   Deadliner
	idle time.Duration
}

// Dial connects to a Server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn,
		dec:  json.NewDecoder(bufio.NewReader(conn)),
		enc:  json.NewEncoder(conn),
		dl:   conn,
	}, nil
}

// ClientOn builds a driver-side client speaking the protocol over an
// existing decoder/encoder pair — e.g. a service session multiplexing test
// traffic onto its control connection. Close is a no-op; the stream's
// owner closes it.
func ClientOn(dec *json.Decoder, enc *json.Encoder) *Client {
	return &Client{dec: dec, enc: enc}
}

// Close releases the connection (no-op for ClientOn clients).
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// Err returns the first transport error encountered (the IUT interface has
// no error returns on Advance; a broken transport reads as quiescence, and
// the driver should check Err after a suspicious run).
func (c *Client) Err() error { return c.err }

// SetIdleTimeout bounds every wire round trip of this client: a remote
// that stalls longer than d mid-exchange surfaces as a transport error
// (Err; satisfies net.Error.Timeout) instead of hanging the driver
// forever. 0 — the default — waits forever. Only Dial clients have
// deadline control; on a ClientOn client, whose bare encoder/decoder pair
// has none, the timeout has no effect.
func (c *Client) SetIdleTimeout(d time.Duration) { c.idle = d }

func (c *Client) roundTrip(m Message) (Message, error) {
	if c.err != nil {
		return Message{}, c.err
	}
	if c.dl != nil && c.idle > 0 {
		now := time.Now()
		_ = c.dl.SetWriteDeadline(now.Add(c.idle))
		_ = c.dl.SetReadDeadline(now.Add(c.idle))
		defer func() {
			_ = c.dl.SetWriteDeadline(time.Time{})
			_ = c.dl.SetReadDeadline(time.Time{})
		}()
	}
	if err := c.enc.Encode(m); err != nil {
		c.err = err
		return Message{}, err
	}
	var r Message
	if err := c.dec.Decode(&r); err != nil {
		c.err = err
		return Message{}, err
	}
	if r.Type == "error" {
		return r, fmt.Errorf("adapter: remote: %s", r.Err)
	}
	return r, nil
}

// Reset implements tiots.IUT.
func (c *Client) Reset() {
	_, _ = c.roundTrip(Message{Type: "reset"})
}

// Seed forwards a per-run rng seed to the remote implementation
// (tiots.Seeder over the wire). Deterministic hosts acknowledge and
// ignore it.
func (c *Client) Seed(seed int64) error {
	_, err := c.roundTrip(Message{Type: "seed", Seed: seed})
	return err
}

// Offer implements tiots.IUT.
func (c *Client) Offer(chanIdx int) error {
	_, err := c.roundTrip(Message{Type: "offer", Chan: chanIdx})
	return err
}

// Advance implements tiots.IUT.
func (c *Client) Advance(d int64) *tiots.Output {
	r, err := c.roundTrip(Message{Type: "advance", Ticks: d})
	if err != nil {
		return nil
	}
	if r.Type == "output" {
		return &tiots.Output{Chan: r.Chan, After: r.Ticks}
	}
	return nil
}
