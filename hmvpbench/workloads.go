package main

// The three workloads. Each uses core in a different way — single-vector
// ApplyInto behind a loopback server (solo-4096), batched ApplyBatchInto
// under chamnp.MatMulInto (matmul-256), and tile-subset ApplyTiles
// behind a gateway and two shards (shard-64) — so a change that helps
// one use and costs another shows up on some workload.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cham/internal/bfv"
	"cham/internal/chamnp"
	"cham/internal/client"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/rlwe"
	"cham/internal/server"
	"cham/internal/wire"
)

// spec describes one workload.
type spec struct {
	name        string
	n           int     // ring degree
	rows, cols  int     // shape of every registered matrix
	tenants     int     // matrices registered; requests spread over them
	vecs        int     // distinct encrypted request vectors
	lanes       int     // encrypted vectors per request (X's lanes for matmul)
	rate        float64 // open-loop arrivals per second; 0 means a closed loop
	serve       bool    // requests go through a server (else in-process)
	shards      int     // shard nodes behind a gateway; 0 means one server
	workers     int     // server batch executors; 0 means GOMAXPROCS
	evalWorkers int     // evaluator parallelism on the load path
	call        string  // span name of one load request
}

// nproc bounds the benchmark's own concurrency: client goroutines,
// connections and evaluator workers.
var nproc = runtime.NumCPU()

// shard-64 spreads its requests over 32 tenant matrices: the placement
// of one 4-tile matrix on two shards is 2/2, 3/1 or 4/0 depending on its
// content hash, so with a single matrix the seed alone would move the
// latency by half; averaging over 128 tiles keeps one placement from
// deciding the run.
var workloads = map[string]*spec{
	"solo-4096": {
		name: "solo-4096", n: 4096, rows: 256, cols: 4096, tenants: 1, vecs: 4, lanes: 1,
		serve: true, evalWorkers: nproc, call: "client.Apply",
	},
	"matmul-256": {
		name: "matmul-256", n: 256, rows: 256, cols: 8192, tenants: 1, vecs: 16, lanes: 8,
		evalWorkers: nproc, call: "chamnp.MatMulInto",
	},
	"shard-64": {
		name: "shard-64", n: 64, rows: 256, cols: 64, tenants: 32, vecs: 8, lanes: 1,
		rate: 50, serve: true, shards: 2, workers: 1, evalWorkers: 1, call: "gateway client.Apply",
	},
}

// serverConfig configures every server node of the workload: shards keep
// their tiles lazy so any shard can serve any tile.
func (w *spec) serverConfig(p bfv.Params) server.Config {
	return server.Config{Params: p, Workers: w.workers, EvalWorkers: w.evalWorkers, LazyTiles: w.shards > 0}
}

// packRows is the packing-key size: the padded rows of one tile.
func (w *spec) packRows() int {
	m := 1
	for m < w.rows && m < w.n {
		m <<= 1
	}
	return m
}

// fixture holds the seed-derived inputs of one workload.
type fixture struct {
	p     bfv.Params
	sk    *rlwe.SecretKey
	mats  [][][]uint64         // tenant matrices
	plain [][]uint64           // request vectors in the clear
	cts   [][]*rlwe.Ciphertext // the same vectors, encrypted
	want  [][][]uint64         // want[t][v] = mats[t]·plain[v] mod t
	xs    []*chamnp.EncMatrix  // matmul-256: column-major operands of lanes vectors each
	pick  [][2]int             // request i uses tenant pick[i%len][0], vector pick[i%len][1]
	keys  *lwe.PackingKeys     // the last set-up's packing keys, for the probes
}

// fixture generates the workload's inputs from seed.
func (w *spec) fixture(seed int64) (*fixture, error) {
	p, err := bfv.NewChamParams(w.n)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	fx := &fixture{p: p, sk: p.KeyGen(rng)}
	uniform := func(n int) []uint64 {
		v := make([]uint64, n)
		for j := range v {
			v[j] = rng.Uint64() % p.T.Q
		}
		return v
	}
	for t := 0; t < w.tenants; t++ {
		A := make([][]uint64, w.rows)
		for i := range A {
			A[i] = uniform(w.cols)
		}
		fx.mats = append(fx.mats, A)
	}
	for v := 0; v < w.vecs; v++ {
		fx.plain = append(fx.plain, uniform(w.cols))
		fx.cts = append(fx.cts, core.EncryptVector(p, rng, fx.sk, fx.plain[v]))
	}
	fx.want = make([][][]uint64, w.tenants)
	for t, A := range fx.mats {
		for _, v := range fx.plain {
			fx.want[t] = append(fx.want[t], core.PlainMatVec(p, A, v))
		}
	}
	if w.lanes > 1 {
		for k := 0; k+w.lanes <= w.vecs; k += w.lanes {
			data := make([][]uint64, w.cols)
			for i := range data {
				data[i] = make([]uint64, w.lanes)
				for j := range data[i] {
					data[i][j] = fx.plain[k+j][i]
				}
			}
			x, err := chamnp.Array(p, rng, fx.sk, data, chamnp.ColMajor)
			if err != nil {
				return nil, err
			}
			fx.xs = append(fx.xs, x)
		}
	}
	fx.pick = make([][2]int, 1<<12)
	for i := range fx.pick {
		fx.pick[i] = [2]int{rng.Intn(w.tenants), rng.Intn(w.vecs)}
	}
	return fx, nil
}

// errWrong marks a product that decrypted to something other than the
// cleartext product.
var errWrong = errors.New("wrong product")

// checkVec compares one decrypted product with the cleartext product.
func checkVec(got, want []uint64) error {
	if len(got) < len(want) {
		return fmt.Errorf("%w: %d values, want %d", errWrong, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%w: row %d is %d, want %d", errWrong, i, got[i], want[i])
		}
	}
	return nil
}

// checkWire decrypts a served result and compares it with want.
func checkWire(p bfv.Params, sk *rlwe.SecretKey, res wire.Result, want []uint64) error {
	got := core.DecryptResult(p, &core.Result{M: int(res.M), N: int(res.N), Packed: res.Packed}, sk)
	return checkVec(got, want)
}

// target is a built serving stack that load requests run against.
type target interface {
	// call sends request i; the load loop times it.
	call(i int) (any, error)
	// check verifies the reply to request i outside the timed interval.
	check(i int, reply any) error
	// tileSplit is the most tiles on one shard over the mean (0 without
	// a cluster).
	tileSplit() float64
	// close drains and stops everything the stack started.
	close() error
}

// setUp builds the workload's stack from nothing — packing keys, serving
// tier, key installation, matrix registration or Prepare — and returns
// once a first product per tenant has been verified.
func (w *spec) setUp(fx *fixture, seed int64) (target, error) {
	keys, err := lwe.GenPackingKeys(fx.p, rand.New(rand.NewSource(seed^0x5eed)), fx.sk, w.packRows())
	if err != nil {
		return nil, err
	}
	fx.keys = keys
	var tgt target
	if w.serve {
		tgt, err = newRemoteTarget(w, fx, keys)
	} else {
		tgt, err = newLocalTarget(w, fx, keys)
	}
	if err != nil {
		return nil, err
	}
	for t := 0; t < w.tenants; t++ {
		i := firstRequestFor(fx, t)
		reply, err := tgt.call(i)
		if err == nil {
			err = tgt.check(i, reply)
		}
		if err != nil {
			tgt.close()
			return nil, fmt.Errorf("first product of tenant %d: %w", t, err)
		}
	}
	return tgt, nil
}

// firstRequestFor is the first request index that targets tenant t.
func firstRequestFor(fx *fixture, t int) int {
	for i, pk := range fx.pick {
		if pk[0] == t {
			return i
		}
	}
	return 0
}

// remoteTarget serves requests through client.Apply against a loopback
// server or a gateway.
type remoteTarget struct {
	fx      *fixture
	tier    *tier
	cl      *client.Client
	handles []wire.MatrixHandle
}

func newRemoteTarget(w *spec, fx *fixture, keys *lwe.PackingKeys) (*remoteTarget, error) {
	tr, err := startTier(fx.p, w.serverConfig(fx.p), w.shards, loadPorts)
	if err != nil {
		return nil, err
	}
	rt := &remoteTarget{fx: fx, tier: tr}
	rt.cl, rt.handles, err = dialAndRegister(tr.addr, fx.p, keys, fx.mats)
	if err != nil {
		tr.close()
		return nil, err
	}
	return rt, nil
}

// dialAndRegister connects a client capped at nproc connections, installs
// keys and registers every matrix.
func dialAndRegister(addr string, p bfv.Params, keys *lwe.PackingKeys, mats [][][]uint64) (*client.Client, []wire.MatrixHandle, error) {
	cl, err := client.Dial(client.Config{Addr: addr, Params: p, MaxConns: nproc})
	if err != nil {
		return nil, nil, err
	}
	if _, err := cl.SetupKeys(keys); err != nil {
		cl.Close()
		return nil, nil, fmt.Errorf("setup keys: %w", err)
	}
	var hs []wire.MatrixHandle
	for _, A := range mats {
		h, err := cl.RegisterMatrix(A)
		if err != nil {
			cl.Close()
			return nil, nil, fmt.Errorf("register: %w", err)
		}
		hs = append(hs, h)
	}
	return cl, hs, nil
}

func (rt *remoteTarget) call(i int) (any, error) {
	pk := rt.fx.pick[i%len(rt.fx.pick)]
	return rt.cl.Apply(rt.handles[pk[0]].ID, rt.fx.cts[pk[1]])
}

func (rt *remoteTarget) check(i int, reply any) error {
	pk := rt.fx.pick[i%len(rt.fx.pick)]
	return checkWire(rt.fx.p, rt.fx.sk, reply.(wire.Result), rt.fx.want[pk[0]][pk[1]])
}

func (rt *remoteTarget) tileSplit() float64 { return rt.tier.tileSplit(rt.handles) }

func (rt *remoteTarget) close() error {
	rt.cl.Close()
	return rt.tier.close()
}

// localTarget runs chamnp.MatMulInto on an in-process prepared matrix.
type localTarget struct {
	w    *spec
	fx   *fixture
	pm   *core.PreparedMatrix
	dsts []*chamnp.EncMatrix
}

func newLocalTarget(w *spec, fx *fixture, keys *lwe.PackingKeys) (*localTarget, error) {
	ev, err := core.NewEvaluatorFromKeys(fx.p, keys)
	if err != nil {
		return nil, err
	}
	ev.Workers = w.evalWorkers
	pm, err := ev.Prepare(fx.mats[0])
	if err != nil {
		return nil, err
	}
	lt := &localTarget{w: w, fx: fx, pm: pm}
	for _, x := range fx.xs {
		dst, err := chamnp.NewMatMulResult(chamnp.Local(pm), x)
		if err != nil {
			return nil, err
		}
		lt.dsts = append(lt.dsts, dst)
	}
	return lt, nil
}

func (lt *localTarget) call(i int) (any, error) {
	k := i % len(lt.fx.xs)
	return nil, chamnp.MatMulInto(chamnp.Local(lt.pm), lt.dsts[k], lt.fx.xs[k])
}

// check decrypts every lane of the last product of operand i; the
// closed loop calls it before the destination is reused.
func (lt *localTarget) check(i int, _ any) error {
	k := i % len(lt.fx.xs)
	got := lt.dsts[k].Decrypt(lt.fx.sk) // rows × lanes
	for j := 0; j < lt.w.lanes; j++ {
		want := lt.fx.want[0][k*lt.w.lanes+j]
		for r := range want {
			if got[r][j] != want[r] {
				return fmt.Errorf("%w: lane %d row %d is %d, want %d", errWrong, j, r, got[r][j], want[r])
			}
		}
	}
	return nil
}

func (lt *localTarget) tileSplit() float64 { return 0 }

func (lt *localTarget) close() error { return nil }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
