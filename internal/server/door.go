package server

import (
	"bufio"
	"context"
	"errors"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"

	"cham/internal/obs"
	"cham/internal/obs/trace"
	"cham/internal/wire"
)

// Handler serves one post-handshake request of a type the Door does not
// own (anything but Hello, TraceHello and Ping). It reports false for a
// type it does not serve; the door then rejects it as unexpected, with
// the stream still in sync.
type Handler func(c *Conn, t wire.MsgType, seq uint16, tc trace.Context, payload []byte) bool

// Door is the chamserve wire front door, shared by a server node and the
// cluster gateway: the listener and open-connection set, the frame read
// loop, the handshake gate and bit-for-bit Hello check, the TraceHello
// ack and Ping, serialized replies, and the drain barrier Shutdown
// closes. What sits behind it — a local registry and batcher, or a
// scatter/gather coordinator — is the Handler and the HelloOK it
// advertises.
type Door struct {
	name     string // "server" or "gateway": the subject of logs and drain rejections
	log      *slog.Logger
	maxFrame uint32
	gauge    *obs.Gauge // open connections
	helloOK  func() wire.HelloOK
	handle   Handler

	// strictV1 pins the read loop to protocol revision 1 and rejects
	// MsgTraceHello, like a pre-tracing build (Config.DisableTrace).
	strictV1 bool
	// metered counts the door's traffic into the cham_server_* families;
	// a gateway door counts only toward its connection gauge.
	metered bool

	ln     atomic.Pointer[net.Listener]
	connMu sync.Mutex
	open   map[net.Conn]struct{} // nil once Shutdown has closed them

	// enqMu serializes admission against drain: Admit holds the read
	// side, Shutdown flips draining under the write side, so no request
	// can slip past the barrier after Shutdown starts waiting on reqWG.
	enqMu    sync.RWMutex
	draining bool
	reqWG    sync.WaitGroup // admitted requests not yet answered
}

// NewDoor builds a trace-aware, unmetered front door logging lifecycle
// events to log. hello supplies the handshake reply, whose Hello field is
// also what a client's Hello must equal; h serves every other request
// type.
func NewDoor(name string, log *slog.Logger, maxFrame uint32, conns *obs.Gauge, hello func() wire.HelloOK, h Handler) *Door {
	if maxFrame == 0 {
		maxFrame = wire.DefaultMaxFrame
	}
	return &Door{
		name: name, log: log, maxFrame: maxFrame, gauge: conns,
		helloOK: hello, handle: h,
		open: map[net.Conn]struct{}{},
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (d *Door) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return d.Serve(ln)
}

// Serve accepts connections on ln until the listener is closed (by
// Shutdown). It returns nil on a clean shutdown.
func (d *Door) Serve(ln net.Listener) error {
	d.ln.Store(&ln)
	if d.isDraining() {
		ln.Close() // Shutdown ran before the listener was stored
	}
	d.log.Info(d.name+" listening", "addr", ln.Addr().String())
	for {
		c, err := ln.Accept()
		if err != nil {
			if d.isDraining() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		d.connMu.Lock()
		if d.open == nil {
			d.connMu.Unlock()
			c.Close() // accepted after Shutdown closed the rest
			continue
		}
		d.open[c] = struct{}{}
		d.connMu.Unlock()
		d.gauge.Add(1)
		go d.serveConn(c)
	}
}

// Addr reports the bound listener address (nil before Serve).
func (d *Door) Addr() net.Addr {
	if p := d.ln.Load(); p != nil {
		return (*p).Addr()
	}
	return nil
}

func (d *Door) isDraining() bool {
	d.enqMu.RLock()
	defer d.enqMu.RUnlock()
	return d.draining
}

// Admit passes one request through the drain barrier, or returns
// CodeDraining once Shutdown has started. enqueue (nil for inline work)
// runs under the barrier, so whatever it hands off lands before the
// drain or not at all; an error from it rolls the admission back and is
// returned. A nil return obliges the caller to call Done once the
// request is answered.
func (d *Door) Admit(enqueue func() *wire.Error) *wire.Error {
	d.enqMu.RLock()
	defer d.enqMu.RUnlock()
	if d.draining {
		return wire.Errf(wire.CodeDraining, "%s is shutting down", d.name)
	}
	d.reqWG.Add(1)
	if enqueue != nil {
		if e := enqueue(); e != nil {
			d.reqWG.Done()
			return e
		}
	}
	return nil
}

// Done retires one admitted request.
func (d *Door) Done() { d.reqWG.Done() }

// Shutdown drains: stop accepting, answer new admissions with
// CodeDraining, wait for every admitted request to be answered, then
// close the remaining connections. ctx bounds the wait; on expiry the
// connections are force-closed and the context's error returned.
func (d *Door) Shutdown(ctx context.Context) error {
	d.log.Info(d.name + " draining")
	d.enqMu.Lock()
	d.draining = true
	d.enqMu.Unlock()
	if p := d.ln.Load(); p != nil {
		(*p).Close()
	}
	err := waitCtx(ctx, &d.reqWG)
	d.connMu.Lock()
	for c := range d.open {
		c.Close()
	}
	d.open = nil
	d.connMu.Unlock()
	return err
}

// waitCtx waits for wg or the context, whichever first.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Conn is one front-door connection. Its requests are read on its own
// goroutine; Send is safe from any goroutine, since a server's batch
// workers answer concurrently with the read loop.
type Conn struct {
	d     *Door
	nc    net.Conn
	wmu   sync.Mutex
	hello bool // parameter handshake completed
}

// Send writes one frame; write errors are swallowed (the read loop will
// observe the broken connection and tear it down).
func (c *Conn) Send(t wire.MsgType, seq uint16, payload []byte) {
	buf := wire.AppendFrame(nil, t, seq, payload)
	c.wmu.Lock()
	_, err := c.nc.Write(buf)
	c.wmu.Unlock()
	if err == nil && c.d.metered {
		mBytesTx.Add(uint64(len(buf)))
	}
}

// SendErr answers a request with a typed error.
func (c *Conn) SendErr(seq uint16, e *wire.Error) {
	if c.d.metered {
		mErrors.Inc()
		countReject(e)
	}
	c.Send(wire.MsgError, seq, e.Encode())
}

// frameLen is the on-wire size of a frame with this payload.
func frameLen(payload []byte) int { return 12 + len(payload) }

// serveConn runs one connection's read loop until the peer hangs up, a
// frame is malformed beyond recovery, or Shutdown closes the socket.
func (d *Door) serveConn(nc net.Conn) {
	c := &Conn{d: d, nc: nc}
	br := bufio.NewReaderSize(nc, 64<<10)
	defer func() {
		d.connMu.Lock()
		delete(d.open, nc)
		d.connMu.Unlock()
		nc.Close()
		d.gauge.Add(-1)
	}()
	for {
		var t wire.MsgType
		var seq uint16
		var th wire.TraceHeader
		var payload []byte
		var err error
		if d.strictV1 {
			t, seq, payload, err = wire.ReadFrame(br, d.maxFrame)
		} else {
			t, seq, th, payload, err = wire.ReadFrameAny(br, d.maxFrame)
		}
		if err != nil {
			// Includes io.EOF on clean hang-up and frame-level corruption —
			// after a desync there is no way to resynchronize the stream.
			return
		}
		tc := trace.Context{Trace: trace.TraceID(th.TraceID), Span: trace.SpanID(th.SpanID), Flags: th.Flags}
		if d.metered {
			mBytesRx.Add(uint64(frameLen(payload)))
			if m, ok := mRequests[t]; ok {
				m.Inc()
			}
		}
		if !c.hello && t != wire.MsgHello && t != wire.MsgPing {
			c.SendErr(seq, wire.Errf(wire.CodeBadRequest, "handshake required before %v", t))
			continue
		}
		switch {
		case t == wire.MsgHello:
			d.serveHello(c, seq, payload)
		case t == wire.MsgTraceHello && !d.strictV1:
			d.serveTraceHello(c, seq, payload)
		case t == wire.MsgPing:
			c.Send(wire.MsgPong, seq, payload)
		case !d.handle(c, t, seq, tc, payload):
			c.SendErr(seq, wire.Errf(wire.CodeBadRequest, "unexpected message type %d", t))
		}
	}
}

// serveHello checks the parameter handshake bit-for-bit.
func (d *Door) serveHello(c *Conn, seq uint16, payload []byte) {
	h, err := wire.DecodeHello(payload)
	if err != nil {
		c.SendErr(seq, wire.Errf(wire.CodeBadRequest, "hello: %v", err))
		return
	}
	ok := d.helloOK()
	if want := ok.Hello; h != want {
		c.SendErr(seq, wire.Errf(wire.CodeParamsMismatch,
			"client params N=%d levels=%d/%d t=%d, %s has N=%d levels=%d/%d t=%d",
			h.RingN, h.Levels, h.NormalLevels, h.T, d.name,
			want.RingN, want.Levels, want.NormalLevels, want.T))
		return
	}
	c.hello = true
	c.Send(wire.MsgHelloOK, seq, ok.Encode())
}

// serveTraceHello acknowledges the trace-capability probe: the door
// accepts version-2 (traced) request frames on any connection.
func (d *Door) serveTraceHello(c *Conn, seq uint16, payload []byte) {
	h, err := wire.DecodeTraceHello(payload)
	if err != nil {
		c.SendErr(seq, wire.Errf(wire.CodeBadRequest, "trace hello: %v", err))
		return
	}
	v := uint8(wire.FrameVersionTraced)
	if h.MaxVersion < v {
		v = h.MaxVersion
	}
	c.Send(wire.MsgTraceHelloOK, seq, wire.TraceHelloOK{Version: v}.Encode())
}
