package cluster

// The chamserve front door is one implementation (server.Door) behind
// both a shard node and the gateway; these tests hold both to the same
// wire contract and the same drain barrier.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cham/internal/bfv"
	"cham/internal/client"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/obs"
	"cham/internal/rlwe"
	"cham/internal/server"
	"cham/internal/testutil"
	"cham/internal/wire"
)

// doorTarget is one serving tier behind a front door, loaded with a key
// set and one registered matrix.
type doorTarget struct {
	door     *server.Door
	addr     string
	shutdown func(context.Context) error
	served   *obs.Counter // moves once per answered apply
	maxBatch uint32       // advertised in HelloOK
	strictV1 bool         // the server's DisableTrace mode
	gateway  bool
	A        [][]uint64
	handle   wire.MatrixHandle
}

const doorCols = 32

// startDoorTarget boots a plain server (shards == 0, strict-v1 when
// strictV1) or a gateway over that many lazy shards, installs keys for sk
// and registers a 96-row matrix through the front door.
func startDoorTarget(tb testing.TB, p bfv.Params, rng *rand.Rand, sk *rlwe.SecretKey, shards int, strictV1 bool) *doorTarget {
	tb.Helper()
	dt := &doorTarget{strictV1: strictV1}
	if shards == 0 {
		n := startNode(tb, p, func(c *server.Config) {
			c.LazyTiles = false
			c.DisableTrace = strictV1
		})
		dt.door, dt.addr, dt.shutdown = n.srv.Door, n.addr, n.srv.Shutdown
		dt.served = obs.GetCounter("cham_server_applies_total", "")
		dt.maxBatch = 16
	} else {
		co, _ := newCluster(tb, p, shards, nil, nil)
		gw, err := NewGateway(GatewayConfig{Coordinator: co})
		if err != nil {
			tb.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		go gw.Serve(ln)
		tb.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			gw.Shutdown(ctx)
		})
		dt.door, dt.addr, dt.shutdown = gw.Door, ln.Addr().String(), gw.Shutdown
		dt.served = obs.GetCounter("cham_cluster_scatters_total", "")
		dt.maxBatch = 1
		dt.gateway = true
	}
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		tb.Fatal(err)
	}
	cl := doorClient(tb, p, dt.addr)
	if _, err := cl.SetupKeys(keys); err != nil {
		tb.Fatal(err)
	}
	dt.A = testutil.Matrix(rng, 96, doorCols, p.T.Q)
	if dt.handle, err = cl.RegisterMatrix(dt.A); err != nil {
		tb.Fatal(err)
	}
	return dt
}

func doorClient(tb testing.TB, p bfv.Params, addr string) *client.Client {
	tb.Helper()
	cl, err := client.Dial(client.Config{Addr: addr, Params: p, MaxConns: 8, MaxRetries: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	return cl
}

// rawConn speaks v1 frames by hand, so a test sees exactly what the door
// answers, in order.
type rawConn struct {
	tb  testing.TB
	nc  net.Conn
	br  *bufio.Reader
	seq uint16
}

func dialRaw(tb testing.TB, addr string) *rawConn {
	tb.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { nc.Close() })
	return &rawConn{tb: tb, nc: nc, br: bufio.NewReader(nc)}
}

// call sends one frame and returns the response, asserting it answers
// the request just sent (the stream is in sync).
func (r *rawConn) call(t wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	r.tb.Helper()
	r.seq++
	r.nc.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteFrame(r.nc, t, r.seq, payload); err != nil {
		r.tb.Fatalf("write %v: %v", t, err)
	}
	rt, rseq, rp, err := wire.ReadFrame(r.br, wire.DefaultMaxFrame)
	if err != nil {
		r.tb.Fatalf("read reply to %v: %v", t, err)
	}
	if rseq != r.seq {
		r.tb.Fatalf("reply to %v has seq %d, want %d (stream desync)", t, rseq, r.seq)
	}
	return rt, rp
}

// expect asserts a reply of type want.
func (r *rawConn) expect(t wire.MsgType, payload []byte, want wire.MsgType) []byte {
	r.tb.Helper()
	rt, rp := r.call(t, payload)
	if rt != want {
		r.tb.Fatalf("%v answered with %v, want %v", t, rt, want)
	}
	return rp
}

// expectErr asserts a typed rejection with the given code.
func (r *rawConn) expectErr(t wire.MsgType, payload []byte, code uint16) {
	r.tb.Helper()
	rp := r.expect(t, payload, wire.MsgError)
	we, err := wire.DecodeError(rp)
	if err != nil {
		r.tb.Fatal(err)
	}
	if we.Code != code {
		r.tb.Fatalf("%v rejected with %s (%s), want %s", t, wire.CodeName(we.Code), we.Detail, wire.CodeName(code))
	}
}

// ping asserts the connection still answers a Ping with its payload.
func (r *rawConn) ping() {
	r.tb.Helper()
	if got := string(r.expect(wire.MsgPing, []byte("sync"), wire.MsgPong)); got != "sync" {
		r.tb.Fatalf("pong echoed %q", got)
	}
}

func (r *rawConn) hello(p bfv.Params) wire.HelloOK {
	r.tb.Helper()
	ok, err := wire.DecodeHelloOK(r.expect(wire.MsgHello, wire.HelloFor(p).Encode(), wire.MsgHelloOK))
	if err != nil {
		r.tb.Fatal(err)
	}
	return ok
}

// TestFrontDoorConformance runs one table of wire-contract cases against
// a plain server, a strict-v1 (DisableTrace) server and a gateway over
// two shards.
func TestFrontDoorConformance(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	targets := []struct {
		name     string
		shards   int
		strictV1 bool
	}{
		{"server", 0, false},
		{"server-strict-v1", 0, true},
		{"gateway", 2, false},
	}
	cases := []struct {
		name string
		run  func(t *testing.T, dt *doorTarget)
	}{
		{"request before Hello", func(t *testing.T, dt *doorTarget) {
			r := dialRaw(t, dt.addr)
			r.expectErr(wire.MsgSetupKeys, []byte("not decoded"), wire.CodeBadRequest)
			r.ping()
			if ok := r.hello(p); ok.MaxBatch != dt.maxBatch {
				t.Fatalf("HelloOK advertises MaxBatch %d, want %d", ok.MaxBatch, dt.maxBatch)
			}
		}},
		{"mismatched Hello", func(t *testing.T, dt *doorTarget) {
			r := dialRaw(t, dt.addr)
			r.expectErr(wire.MsgHello, wire.HelloFor(testParams(t, 16)).Encode(), wire.CodeParamsMismatch)
			r.ping()
		}},
		{"Ping before Hello", func(t *testing.T, dt *doorTarget) {
			dialRaw(t, dt.addr).ping()
		}},
		{"TraceHello", func(t *testing.T, dt *doorTarget) {
			r := dialRaw(t, dt.addr)
			r.hello(p)
			probe := wire.TraceHello{MaxVersion: wire.FrameVersionTraced}.Encode()
			if dt.strictV1 {
				r.expectErr(wire.MsgTraceHello, probe, wire.CodeBadRequest)
				r.ping()
				return
			}
			ack, err := wire.DecodeTraceHelloOK(r.expect(wire.MsgTraceHello, probe, wire.MsgTraceHelloOK))
			if err != nil {
				t.Fatal(err)
			}
			if ack.Version != wire.FrameVersionTraced {
				t.Fatalf("TraceHello acked version %d, want %d", ack.Version, wire.FrameVersionTraced)
			}
		}},
		{"unknown message type", func(t *testing.T, dt *doorTarget) {
			r := dialRaw(t, dt.addr)
			r.hello(p)
			r.expectErr(wire.MsgType(0x7e), nil, wire.CodeBadRequest)
			r.ping()
			if dt.gateway {
				// The gateway serves no shard-facing requests.
				r.expectErr(wire.MsgTileApply, nil, wire.CodeBadRequest)
				r.expectErr(wire.MsgRegistrySync, wire.RegistrySync{}.Encode(), wire.CodeBadRequest)
				r.ping()
			}
		}},
		// Last: it shuts the target down.
		{"Apply while draining", func(t *testing.T, dt *doorTarget) {
			r := dialRaw(t, dt.addr)
			r.hello(p)
			ctV := core.EncryptVector(p, rng, sk, testutil.Vector(rng, doorCols, p.T.Q))
			apply := wire.EncodeApply(p.R, wire.Apply{ID: dt.handle.ID, Vector: ctV})
			// Hold one admission open so Shutdown stays in its drain wait.
			if e := dt.door.Admit(nil); e != nil {
				t.Fatal(e)
			}
			done := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				done <- dt.shutdown(ctx)
			}()
			for dt.door.Admit(nil) == nil { // poll until the barrier is down
				dt.door.Done()
				time.Sleep(time.Millisecond)
			}
			r.expectErr(wire.MsgApply, apply, wire.CodeDraining)
			dt.door.Done()
			if err := <-done; err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		}},
	}
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			dt := startDoorTarget(t, p, rng, sk, tg.shards, tg.strictV1)
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) { c.run(t, dt) })
			}
		})
	}
}

// TestFrontDoorDrainRace runs concurrent Applies while Shutdown runs,
// against a plain server and a gateway over two shards. Every call must
// decrypt to the cleartext product, be rejected as draining, or fail on
// the transport once the drain has begun; and once Shutdown returns, no
// admitted request may still reach the kernel (or the scatter).
func TestFrontDoorDrainRace(t *testing.T) {
	p := testParams(t, 32)
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := testutil.NewRand(t)
			sk := p.KeyGen(rng)
			dt := startDoorTarget(t, p, rng, sk, shards, false)
			cl := doorClient(t, p, dt.addr)

			const callers = 6
			var draining atomic.Bool
			var wins atomic.Int64
			warm := make(chan struct{}, callers)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					var once sync.Once
					inLoop := func() { once.Do(func() { warm <- struct{}{} }) }
					defer inLoop() // a caller that fails early must not stall the drain
					grng := rand.New(rand.NewSource(testutil.Seed(t) + 900 + int64(c)))
					v := testutil.Vector(grng, doorCols, p.T.Q)
					ctV := core.EncryptVector(p, grng, sk, v)
					plain := core.PlainMatVec(p, dt.A, v)
					for {
						res, err := cl.Apply(dt.handle.ID, ctV)
						if err != nil {
							var we *wire.Error
							switch {
							case errors.As(err, &we):
								if we.Code != wire.CodeDraining {
									t.Errorf("caller %d: rejected with %v", c, err)
								}
							case !draining.Load():
								t.Errorf("caller %d: transport failure before the drain: %v", c, err)
							case !strings.Contains(err.Error(), "transport"):
								t.Errorf("caller %d: unexpected failure: %v", c, err)
							}
							return
						}
						dec := core.DecryptResult(p, &core.Result{M: int(res.M), N: int(res.N), Packed: res.Packed}, sk)
						for row := range plain {
							if dec[row] != plain[row] {
								t.Errorf("caller %d: row %d decrypts to %d, want %d", c, row, dec[row], plain[row])
								return
							}
						}
						wins.Add(1)
						inLoop()
					}
				}(c)
			}
			for c := 0; c < callers; c++ {
				<-warm // every caller is in its loop
			}
			draining.Store(true)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := dt.shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			after := dt.served.Value()
			wg.Wait()
			if got := dt.served.Value(); got != after {
				t.Fatalf("%d applies served after Shutdown returned", got-after)
			}
			t.Logf("%d verified applies before the drain", wins.Load())
		})
	}
}
