package main

// Cluster mode: measure the sharded serving tier. In-process shard
// fleets of 1, 2 and 4 chamserve nodes run behind a coordinator, each
// node fronting a simulated card in the descriptor-aware latency model
// (job time = base + per-row × rows), so a shard serving half the tiles
// finishes its card job in half the time — the same reason a real
// multi-card deployment scales. Aggregate rows/s per fleet size and the
// latency distribution under 1000 simulated clients land in the
// `cluster` section of BENCH_hmvp.json, and the gate holds the 2-shard
// fleet to clearing 1.6x over 1 shard on every run.
//
// Every fleet's first gathered result is checked bit-identical to the
// in-process evaluator before anything is timed.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"cham/internal/bfv"
	"cham/internal/client"
	"cham/internal/cluster"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/obs/trace"
	"cham/internal/rlwe"
	rt "cham/internal/runtime"
	"cham/internal/server"
	"cham/internal/testutil"
)

// Cluster benchmark shape: a 2048×32 matrix at ring degree 32 spans 64
// row tiles, enough for the ring to spread load evenly over 4 shards,
// while the tiny degree keeps the software share of each apply small
// against the simulated card time the scaling story is about.
const (
	clusterRingN = 32
	clusterRows  = 2048
	clusterCols  = 32

	// Scaling fleets: 500µs per row makes the full-matrix card job ~1s, so
	// fleet wall-clock is card-dominated and halves as tiles split.
	clusterPerRow = 500 * time.Microsecond
	// Latency fleet: a lighter card (51ms full-matrix job) keeps the
	// 1000-client closed-loop run in seconds while still queueing.
	clusterP99PerRow = 25 * time.Microsecond
)

// clusterFleet is one fleet size's measurement.
type clusterFleet struct {
	Shards        int     `json:"shards"`
	Applies       int     `json:"applies"`
	RowsPerSec    float64 `json:"rows_per_sec"`
	AppliesPerSec float64 `json:"applies_per_sec"`
}

// clusterP99 is the simulated-client latency section.
type clusterP99 struct {
	Shards     int     `json:"shards"`
	Clients    int     `json:"clients"`
	P50Millis  float64 `json:"p50_ms"`
	P99Millis  float64 `json:"p99_ms"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

// clusterResult is the `cluster` section of BENCH_hmvp.json.
type clusterResult struct {
	RingDegree    int            `json:"ring_degree"`
	Rows          int            `json:"rows"`
	Cols          int            `json:"cols"`
	Fleets        []clusterFleet `json:"fleets"`
	Speedup2Shard float64        `json:"speedup_2shard"`
	Speedup4Shard float64        `json:"speedup_4shard"`
	P99           clusterP99     `json:"p99"`
}

// fixture holds a served-matrix benchmark's keys, matrix and one
// encrypted vector, plus the matrix prepared in-process over the same
// keys and its apply: the single-node reference a remote or sharded apply
// is held to.
type fixture struct {
	p    bfv.Params
	rng  *rand.Rand
	sk   *rlwe.SecretKey
	keys *lwe.PackingKeys
	A    [][]uint64
	ctV  []*rlwe.Ciphertext
	pm   *core.PreparedMatrix
	want *core.Result
}

// newFixture draws a rows×cols matrix and one vector at ring degree ringN
// from seed 99.
func newFixture(ringN, rows, cols int) (*fixture, error) {
	p, err := bfv.NewChamParams(ringN)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(99))
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		return nil, err
	}
	A := testutil.Matrix(rng, rows, cols, p.T.Q)
	ctV := core.EncryptVector(p, rng, sk, testutil.Vector(rng, cols, p.T.Q))
	ev, err := core.NewEvaluatorFromKeys(p, keys)
	if err != nil {
		return nil, err
	}
	pm, err := ev.Prepare(A)
	if err != nil {
		return nil, err
	}
	want, err := pm.Apply(ctV)
	if err != nil {
		return nil, err
	}
	return &fixture{p: p, rng: rng, sk: sk, keys: keys, A: A, ctV: ctV, pm: pm, want: want}, nil
}

// startFleet boots `shards` lazy-tile nodes with descriptor-aware cards
// plus a coordinator, installs keys, registers the matrix, and verifies
// one gathered apply bit-for-bit before returning. On error everything
// it started is shut down.
func (f *fixture) startFleet(shards int, perRow time.Duration, maxBatch int) (_ *cluster.Coordinator, _ [32]byte, shutdown func(), err error) {
	var closers []func()
	shutdown = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			shutdown()
		}
	}()
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		dev := rt.NewDevice(2, time.Millisecond, rt.FaultPlan{})
		dev.SetRowLatency(time.Millisecond, perRow)
		card, err := rt.New(dev)
		if err != nil {
			return nil, [32]byte{}, nil, err
		}
		card.JobTimeout = 30 * time.Second
		s, err := server.New(server.Config{
			Params:          f.p,
			LazyTiles:       true,
			Card:            card,
			MaxBatch:        maxBatch,
			Workers:         4,
			QueueDepth:      4096,
			DefaultDeadline: 120 * time.Second,
		})
		if err != nil {
			return nil, [32]byte{}, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, [32]byte{}, nil, err
		}
		go s.Serve(ln)
		addrs[i] = ln.Addr().String()
		closers = append(closers, func() { ln.Close() })
	}
	co, err := cluster.New(cluster.Config{
		Params: f.p,
		Nodes:  addrs,
		// The hedging policy is for production stragglers; a benchmark
		// fleet's card waits are the workload, so keep hedges out of it.
		HedgeDelay:     time.Minute,
		RequestTimeout: 120 * time.Second,
	})
	if err != nil {
		return nil, [32]byte{}, nil, err
	}
	closers = append(closers, co.Close)
	if _, err := co.SetupKeys(f.keys); err != nil {
		return nil, [32]byte{}, nil, err
	}
	handle, err := co.RegisterMatrix(f.A)
	if err != nil {
		return nil, [32]byte{}, nil, err
	}
	got, err := co.Apply(handle.ID, f.ctV)
	if err != nil {
		return nil, [32]byte{}, nil, err
	}
	if len(got.Packed) != len(f.want.Packed) {
		return nil, [32]byte{}, nil, fmt.Errorf("%d-shard fleet gathered %d tiles, want %d", shards, len(got.Packed), len(f.want.Packed))
	}
	for ti := range got.Packed {
		g, w := got.Packed[ti], f.want.Packed[ti]
		if !g.B.Equal(w.B) || !g.A.Equal(w.A) {
			return nil, [32]byte{}, nil, fmt.Errorf("%d-shard fleet: tile %d not bit-identical to single-node apply", shards, ti)
		}
	}
	return co, handle.ID, shutdown, nil
}

// volley drives `clients` closed-loop goroutines, each calling
// apply(client) `perClient` times, and returns the per-request latencies
// plus the makespan.
func volley(clients, perClient int, apply func(c int) error) ([]time.Duration, time.Duration, error) {
	lat := make([]time.Duration, clients*perClient)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				r0 := time.Now()
				if err := apply(c); err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				lat[c*perClient+i] = time.Since(r0)
			}
		}(c)
	}
	wg.Wait()
	makespan := time.Since(t0)
	close(errs)
	for err := range errs {
		return nil, 0, err
	}
	return lat, makespan, nil
}

func percentile(lat []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

// runCluster measures the fleets into the cluster section, then, with
// -trace-sample, prints one traced request through a 2-shard fleet.
func runCluster(rep report) error {
	f, err := newFixture(clusterRingN, clusterRows, clusterCols)
	if err != nil {
		return err
	}
	res := &clusterResult{RingDegree: clusterRingN, Rows: clusterRows, Cols: clusterCols}

	const clients, perClient = 8, 1
	perShard := map[int]float64{}
	for _, shards := range []int{1, 2, 4} {
		// Coalescing is deliberately off in the scaling fleets: a batch's
		// card job costs the same as one request (job time follows the max
		// descriptor, not the sum), so coalescing luck would swamp the
		// sharding signal this phase isolates. MaxBatch=1 makes card time
		// scale purely with per-shard rows — deterministic run to run.
		co, id, stop, err := f.startFleet(shards, clusterPerRow, 1)
		if err != nil {
			return err
		}
		_, makespan, err := volley(clients, perClient, func(int) error {
			_, err := co.Apply(id, f.ctV)
			return err
		})
		stop()
		if err != nil {
			return err
		}
		applies := clients * perClient
		fleet := clusterFleet{
			Shards:        shards,
			Applies:       applies,
			RowsPerSec:    float64(applies*clusterRows) / makespan.Seconds(),
			AppliesPerSec: float64(applies) / makespan.Seconds(),
		}
		perShard[shards] = fleet.RowsPerSec
		res.Fleets = append(res.Fleets, fleet)
		fmt.Printf("cluster %d shard(s):   %12.0f rows/s  (%d applies in %v)\n",
			shards, fleet.RowsPerSec, applies, makespan.Round(time.Millisecond))
	}
	res.Speedup2Shard = perShard[2] / perShard[1]
	res.Speedup4Shard = perShard[4] / perShard[1]
	fmt.Printf("aggregate speedup:     %.2fx at 2 shards, %.2fx at 4 shards\n",
		res.Speedup2Shard, res.Speedup4Shard)

	// Latency under 1000 simulated clients against the 2-shard fleet.
	const simClients = 1000
	// The latency fleet keeps request coalescing on — under a 1000-client
	// pile-up batching is the serving tier's real behavior, and the
	// distribution under saturation is the number being reported.
	co, id, stop, err := f.startFleet(2, clusterP99PerRow, 16)
	if err != nil {
		return err
	}
	lat, makespan, err := volley(simClients, 1, func(int) error {
		_, err := co.Apply(id, f.ctV)
		return err
	})
	stop()
	if err != nil {
		return err
	}
	res.P99 = clusterP99{
		Shards:     2,
		Clients:    simClients,
		P50Millis:  float64(percentile(lat, 0.50)) / float64(time.Millisecond),
		P99Millis:  float64(percentile(lat, 0.99)) / float64(time.Millisecond),
		RowsPerSec: float64(simClients*clusterRows) / makespan.Seconds(),
	}
	fmt.Printf("1000-client 2-shard:   p50 %.0f ms, p99 %.0f ms, %12.0f rows/s\n",
		res.P99.P50Millis, res.P99.P99Millis, res.P99.RowsPerSec)
	if err := rep.set("cluster", res); err != nil {
		return err
	}
	if *traceSample > 0 {
		return runTracedClusterRequest(*traceSample)
	}
	return nil
}

// runTracedClusterRequest is the end-to-end tracing demo behind
// `chambench -trace-sample R cluster`: a 2-shard fleet behind a real wire
// gateway serves one sampled client apply, and because every tier runs
// in this process the span ring already holds the merged trace. The
// span tree — client → gateway → coordinator → both shards → server
// queue/dispatch → runtime job → kernel stages — prints to stdout.
func runTracedClusterRequest(rate float64) error {
	// The rate must be set before the fleet boots: the coordinator's
	// shard clients negotiate the traced frame version at dial time.
	trace.Reset()
	trace.SetSampleRate(rate)
	defer trace.SetSampleRate(0)

	f, err := newFixture(clusterRingN, clusterRows, clusterCols)
	if err != nil {
		return err
	}
	co, id, stop, err := f.startFleet(2, clusterP99PerRow, 1)
	if err != nil {
		return err
	}
	defer stop()
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Coordinator: co})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go gw.Serve(ln)
	defer gw.Shutdown(context.Background())

	cl, err := client.Dial(client.Config{Params: f.p, Addr: ln.Addr().String()})
	if err != nil {
		return err
	}
	defer cl.Close()
	tc, sp := trace.Root("chambench", "apply")
	_, aerr := cl.ApplyTraced(tc, id, f.ctV)
	sp.EndErr(aerr)
	if aerr != nil {
		return aerr
	}

	recs := trace.TraceRecords(tc.Trace)
	seen := map[string]bool{}
	for _, r := range recs {
		seen[r.Service] = true
	}
	for _, svc := range []string{"chambench", "client", "gateway", "coordinator", "server", "runtime", "kernel"} {
		if !seen[svc] {
			return fmt.Errorf("merged trace is missing %q spans (got %d spans)", svc, len(recs))
		}
	}
	fmt.Printf("\ntraced cluster request %s (%d spans):\n", tc.Trace, len(recs))
	return trace.WriteText(os.Stdout, recs)
}
