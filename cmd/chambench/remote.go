package main

// The remote section: measure the serving tier instead of the in-process
// hot path. Reports the RPC tax (remote single-client apply vs warm
// in-process ApplyInto over the same keys and matrix) and the batched
// throughput under concurrent clients. With -remote self (the default),
// two loopback servers are started in-process — one with coalescing
// enabled, one pinned to batch size 1 — so the batching win is measured
// directly; with -remote host:port an external chamserve is benchmarked
// as-is.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"cham/internal/bfv"
	"cham/internal/client"
	"cham/internal/core"
	"cham/internal/rlwe"
	rt "cham/internal/runtime"
	"cham/internal/server"
	"cham/internal/testutil"
	"cham/internal/wire"
)

// remoteClients is the number of concurrent clients driving the batched
// throughput measurement.
const remoteClients = 64

// remoteResult is the remote section of BENCH_hmvp.json.
type remoteResult struct {
	Target            string  `json:"target"`
	RingDegree        int     `json:"ring_degree"`
	Rows              int     `json:"rows"`
	Cols              int     `json:"cols"`
	Clients           int     `json:"clients"`
	InprocNsPerOp     float64 `json:"inproc_ns_per_op"`
	RPCNsPerOp        float64 `json:"rpc_ns_per_op"`
	RPCOverheadNs     float64 `json:"rpc_overhead_ns"`
	BatchedReqPerSec  float64 `json:"batched_req_per_sec"`
	Batch1ReqPerSec   float64 `json:"batch1_req_per_sec,omitempty"`
	CoalescingSpeedup float64 `json:"coalescing_speedup,omitempty"`
}

// loopbackServer starts an in-process server with a simulated card and
// returns its address plus a closer.
func loopbackServer(p bfv.Params, maxBatch int) (string, func(), error) {
	// 5ms per card job: scaled down from the ~100ms production HMVP but
	// still large against the software apply, so per-job dispatch is the
	// dominant serving cost exactly as on the real card.
	card, err := rt.New(rt.NewDevice(2, 5*time.Millisecond, rt.FaultPlan{}))
	if err != nil {
		return "", nil, err
	}
	card.JobTimeout = 5 * time.Second
	s, err := server.New(server.Config{
		Params:   p,
		MaxBatch: maxBatch,
		Linger:   2 * time.Millisecond,
		Card:     card,
	})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go s.Serve(ln)
	return ln.Addr().String(), func() { ln.Close() }, nil
}

// dialRemote connects a client to addrSpec — for "self", a fresh
// loopback server coalescing up to maxBatch requests — and installs the
// fixture's keys and matrix. stop closes the client and any server.
func dialRemote(addrSpec string, maxBatch int, f *fixture) (cl *client.Client, h wire.MatrixHandle, stop func(), err error) {
	addr, stopServer := addrSpec, func() {}
	if addrSpec == "self" {
		if addr, stopServer, err = loopbackServer(f.p, maxBatch); err != nil {
			return nil, h, nil, err
		}
	}
	if cl, err = client.Dial(client.Config{Addr: addr, Params: f.p, MaxConns: 128}); err != nil {
		stopServer()
		return nil, h, nil, err
	}
	stop = func() {
		cl.Close()
		stopServer()
	}
	if _, err = cl.SetupKeys(f.keys); err != nil {
		stop()
		return nil, h, nil, fmt.Errorf("setup keys: %w", err)
	}
	if h, err = cl.RegisterMatrix(f.A); err != nil {
		stop()
		return nil, h, nil, fmt.Errorf("register: %w", err)
	}
	return cl, h, stop, nil
}

// throughput drives remoteClients closed-loop clients through cl, each
// cycling over vecs, and returns requests per second.
func throughput(cl *client.Client, h wire.MatrixHandle, vecs [][]*rlwe.Ciphertext) (float64, error) {
	const perClient = 8
	_, makespan, err := volley(remoteClients, perClient, func(c int) error {
		_, err := cl.Apply(h.ID, vecs[c%len(vecs)])
		return err
	})
	if err != nil {
		return 0, err
	}
	return float64(remoteClients*perClient) / makespan.Seconds(), nil
}

// runRemote measures the remote section against the -remote target
// ("self" or the host:port of a running chamserve with a matching ring
// degree).
func runRemote(rep report) error {
	addrSpec, ringN := *remote, *remoteN
	m := min(64, ringN)
	f, err := newFixture(ringN, m, ringN)
	if err != nil {
		return err
	}
	pm, ctV := f.pm, f.ctV

	res := &remoteResult{
		Target:     addrSpec,
		RingDegree: ringN,
		Rows:       m,
		Cols:       ringN,
		Clients:    remoteClients,
	}
	// In-process baseline over the identical key set and matrix (the
	// fixture's reference apply already warmed the evaluator).
	out := pm.NewResult()
	res.InprocNsPerOp = bench("", ringN, m, ringN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := pm.ApplyInto(out, ctV); err != nil {
				b.Fatal(err)
			}
		}
	}).NsPerOp

	cl, h, stop, err := dialRemote(addrSpec, 16, f)
	if err != nil {
		return err
	}
	defer stop()

	// Single-client RPC latency: the pure serving tax (framing, TCP,
	// decode, queue) on top of the same ApplyInto.
	res.RPCNsPerOp = bench("", ringN, m, ringN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cl.Apply(h.ID, ctV); err != nil {
				b.Fatal(err)
			}
		}
	}).NsPerOp
	res.RPCOverheadNs = res.RPCNsPerOp - res.InprocNsPerOp

	// Batched throughput under concurrent clients. Each goroutine reuses
	// one of a handful of pre-encrypted vectors (encryption is client-side
	// work and not what is being measured).
	vecs := [][]*rlwe.Ciphertext{ctV}
	for i := 0; i < 3; i++ {
		vecs = append(vecs, core.EncryptVector(f.p, f.rng, f.sk, testutil.Vector(f.rng, ringN, f.p.T.Q)))
	}
	res.BatchedReqPerSec, err = throughput(cl, h, vecs)
	if err != nil {
		return err
	}

	if addrSpec == "self" {
		// Same fleet against a server pinned to batch size 1: every request
		// pays the full per-job card dispatch on its own.
		cl1, h1, stop1, err := dialRemote(addrSpec, 1, f)
		if err != nil {
			return err
		}
		defer stop1()
		res.Batch1ReqPerSec, err = throughput(cl1, h1, vecs)
		if err != nil {
			return err
		}
		res.CoalescingSpeedup = res.BatchedReqPerSec / res.Batch1ReqPerSec
	}
	fmt.Printf("in-process warm apply:  %12.0f ns/op\n", res.InprocNsPerOp)
	fmt.Printf("remote RPC apply:       %12.0f ns/op  (overhead %.0f ns, %.1f%%)\n",
		res.RPCNsPerOp, res.RPCOverheadNs, 100*res.RPCOverheadNs/res.InprocNsPerOp)
	fmt.Printf("batched throughput:     %12.0f req/s  (%d clients)\n", res.BatchedReqPerSec, res.Clients)
	if res.Batch1ReqPerSec > 0 {
		fmt.Printf("batch-1 throughput:     %12.0f req/s\n", res.Batch1ReqPerSec)
		fmt.Printf("coalescing speedup:     %12.2fx\n", res.CoalescingSpeedup)
	}
	return rep.set("remote", res)
}
