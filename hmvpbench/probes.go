package main

// Per-layer probes of the traced run. Each probe times calls into one
// layer's public functions on the workload's own parameters and fixtures,
// recording a span around every call (or around every tight loop of calls
// for those too short to time one at a time), and every product a probe
// computes is decrypted and compared with the cleartext product.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"time"

	"cham/internal/chamnp"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/obs"
	"cham/internal/rlwe"
	"cham/internal/server"
	"cham/internal/wire"
)

// probeBudget is how long a probe of a fast call keeps sampling; slow
// calls stop after minReps samples.
const (
	probeBudget = 300 * time.Millisecond
	minReps     = 3
)

// timeEach calls f until it has minReps samples and budget has passed,
// running prep untimed before each call, and returns the median ms per
// call. Each call is one span.
func timeEach(rec *recorder, parent int, name string, budget time.Duration, prep func(), f func() error) (float64, error) {
	var per []float64
	start := time.Now()
	for len(per) < minReps || (time.Since(start) < budget && len(per) < 1000) {
		if prep != nil {
			prep()
		}
		id := rec.begin(name, parent)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		rec.end(id, 1, err)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		per = append(per, ms(d))
	}
	return median(per), nil
}

// timeLoop times f in tight loops of about a millisecond each, one span
// per loop, and returns the median ms per call.
func timeLoop(rec *recorder, parent int, name string, f func() error) (float64, error) {
	t0 := time.Now()
	if err := f(); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	calls := int(time.Millisecond / max(time.Since(t0), time.Microsecond))
	calls = max(1, min(calls, 10000))
	var per []float64
	start := time.Now()
	for len(per) < minReps || (time.Since(start) < probeBudget && len(per) < 1000) {
		id := rec.begin(name, parent)
		t := time.Now()
		for c := 0; c < calls; c++ {
			if err := f(); err != nil {
				rec.end(id, c+1, err)
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		per = append(per, ms(time.Since(t))/float64(calls))
		rec.end(id, calls, nil)
	}
	return median(per), nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probe runs every per-layer probe and derives the per-layer metrics.
// untraced and traced are the two load runs and loadD the registry change
// across the traced one. A wrong product is an error wrapping errWrong.
func probe(w *spec, fx *fixture, tgt target, untraced, traced *loadResult, loadD regDelta, rec *recorder) (map[string]metric, error) {
	p := fx.p
	n := p.R.N
	root := rec.begin("probes."+w.name, 0)
	defer rec.end(root, 0, nil)
	m := map[string]metric{}
	rng := rand.New(rand.NewSource(int64(n)))

	// ntt: one single-limb forward transform; its tight-loop rate is the
	// peak the whole apply is measured against.
	tab := p.R.Tables[0]
	limb := make([]uint64, n)
	for i := range limb {
		limb[i] = rng.Uint64() % tab.M.Q
	}
	fwd, err := timeLoop(rec, root, "ntt.Table.Forward", func() error { tab.Forward(limb); return nil })
	if err != nil {
		return nil, err
	}
	logN := bits.Len(uint(n)) - 1
	peak := float64(n/2*logN) / (fwd / 1e3)
	m["ntt.forward_us"] = metric{fwd * 1e3, "us"}
	m["ntt.peak_modmul_per_s"] = metric{peak, "1/s"}

	// rlwe: one hoisted key switch.
	a := p.R.NewPoly(p.NormalLevels)
	p.R.UniformPoly(rng, a)
	dec := p.GetDecomposition()
	defer p.PutDecomposition(dec)
	outB, outA := p.R.NewPoly(p.NormalLevels), p.R.NewPoly(p.NormalLevels)
	swk := fx.keys.Keys[3]
	ks, err := timeLoop(rec, root, "rlwe.DecomposeInto+KeySwitchHoistedInto", func() error {
		p.DecomposeInto(dec, a)
		p.KeySwitchHoistedInto(outB, outA, dec, swk)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["rlwe.keyswitch_us"] = metric{ks * 1e3, "us"}

	// lwe: one merge and one whole pack tree over a tile's leaves.
	if err := probePack(fx, rng, rec, root, m); err != nil {
		return nil, err
	}
	m["lwe.merges_per_apply"] = metric{ratio(loadD.get("cham_hmvp_pack_merges_total").value,
		float64(len(traced.lat)*w.lanes)), "count"}

	// core: warm applies at 1 and nproc workers, allocations, batching,
	// Prepare, and the stage split at one worker.
	cp, err := probeCore(w, fx, rec, root, peak, m)
	if err != nil {
		return nil, err
	}

	// wire: one result frame of the workload's shape.
	wr := wire.Result{M: uint32(cp.res.M), N: uint32(cp.res.N), Packed: cp.res.Packed}
	var payload []byte
	enc, err := timeLoop(rec, root, "wire.EncodeResult", func() error { payload = wire.EncodeResult(p.R, wr); return nil })
	if err != nil {
		return nil, err
	}
	var back wire.Result
	decT, err := timeLoop(rec, root, "wire.DecodeResult", func() error {
		back, err = wire.DecodeResult(p.R, payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := checkWire(p, fx.sk, back, fx.want[0][0]); err != nil {
		return nil, err
	}
	m["wire.result_encode_us"] = metric{enc * 1e3, "us"}
	m["wire.result_decode_us"] = metric{decT * 1e3, "us"}

	// client, server, cluster: one loopback server, then a gateway over
	// two lazy shards, both configured like the workload's servers.
	cfg := w.serverConfig(p)
	cfg.LazyTiles = false
	single, err := probeRemote(fx, cfg, 0, rec, root, "client.Apply")
	if err != nil {
		return nil, err
	}
	inproc := cp.applyWN
	if w.evalWorkers == 1 {
		inproc = cp.apply1
	}
	m["client.rpc_overhead_ms"] = metric{single.lat - inproc, "ms"}
	cfg.LazyTiles = true
	shards, err := probeRemote(fx, cfg, 2, rec, root, "gateway client.Apply")
	if err != nil {
		return nil, err
	}
	m["cluster.overhead_ms"] = metric{shards.lat - single.lat, "ms"}

	// The server and cluster families are read over the traced load run
	// when the load path crosses them, else over the probe above.
	srvD := single.d
	if w.serve {
		srvD = loadD
	}
	m["server.wait_ms"] = metric{srvD.mean("cham_server_wait_seconds") * 1e3, "ms"}
	m["server.serve_ms"] = metric{srvD.mean("cham_server_serve_seconds") * 1e3, "ms"}
	m["server.batch_size_mean"] = metric{srvD.mean("cham_server_batch_size"), "count"}
	m["server.bytes_per_apply"] = metric{ratio(srvD.get("cham_server_bytes_rx_total").value+srvD.get("cham_server_bytes_tx_total").value,
		srvD.get("cham_server_applies_total").value), "B"}

	cluD, groups, split := shards.d, shards.groups, shards.split
	if rt, isRemote := tgt.(*remoteTarget); isRemote && w.shards > 0 {
		cluD, split = loadD, rt.tileSplit()
		_, legs := rt.tier.placement(rt.handles)
		groups = 0
		for i := 0; i < traced.attempted; i++ {
			groups += legs[fx.pick[i%len(fx.pick)][0]]
		}
	}
	shardReqs := cluD.get("cham_cluster_shard_requests_total", "outcome", "ok").value +
		cluD.get("cham_cluster_shard_requests_total", "outcome", "error").value
	m["cluster.gather_ms"] = metric{cluD.mean("cham_cluster_gather_seconds") * 1e3, "ms"}
	m["cluster.useful_frac"] = metric{ratio(float64(groups), shardReqs), "frac"}
	m["cluster.hedges_per_apply"] = metric{ratio(cluD.get("cham_cluster_hedges_total").value,
		cluD.get("cham_cluster_scatters_total").value), "count"}
	m["cluster.tile_split"] = metric{split, "ratio"}

	// loadgen: how late the open-loop generator ran, and what tracing cost.
	m["loadgen.late_p99_ms"] = metric{quantile(untraced.late, 0.99), "ms"}
	m["loadgen.latency_p90_ms"] = metric{quantile(untraced.lat, 0.90), "ms"}
	m["loadgen.latency_p99_ms"] = metric{quantile(untraced.lat, 0.99), "ms"}
	m["loadgen.latency_samples"] = metric{float64(len(untraced.lat)), "count"}
	m["loadgen.trace_overhead_frac"] = metric{quantile(traced.lat, 0.5)/quantile(untraced.lat, 0.5) - 1, "frac"}

	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("per-layer metric %s is not finite", k)
		}
	}
	return m, nil
}

// probePack times one PackTwoResident merge and the whole PackResident +
// FlushInto tree over keys.M fresh slot ciphertexts, at 1 and nproc
// workers. The tree folds its leaves in place, so each call starts from an
// untimed copy of the pristine leaves.
func probePack(fx *fixture, rng *rand.Rand, rec *recorder, root int, m map[string]metric) error {
	p, keys := fx.p, fx.keys
	pristine := make([]*lwe.PackNode, keys.M)
	work := make([]*lwe.PackNode, keys.M)
	for i := range pristine {
		ct := p.Encrypt(rng, fx.sk, p.EncodeVector([]uint64{rng.Uint64() % p.T.Q}), p.NormalLevels)
		pristine[i] = lwe.NewPackNode(p)
		lwe.ResidentFromRLWE(p, pristine[i], lwe.Extract(p, ct, 0).AsRLWE(p))
		work[i] = lwe.NewPackNode(p)
	}
	reset := func() {
		for i, src := range pristine {
			work[i].BT.CopyFrom(src.BT)
			work[i].A.CopyFrom(src.A)
		}
	}
	scratch := lwe.GetMergeScratch(p)
	defer lwe.PutMergeScratch(p, scratch)
	merge, err := timeEach(rec, root, "lwe.PackTwoResident", probeBudget, reset, func() error {
		lwe.PackTwoResident(p, work[0], 1, work[0], work[1], keys.Keys[3], scratch)
		return nil
	})
	if err != nil {
		return err
	}
	m["lwe.merge_us"] = metric{merge * 1e3, "us"}
	out := &rlwe.Ciphertext{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)}
	for _, c := range []struct {
		workers int
		name    string
	}{{1, "lwe.pack_tree_w1_ms"}, {nproc, "lwe.pack_tree_wN_ms"}} {
		t, err := timeEach(rec, root, fmt.Sprintf("lwe.PackResident+FlushInto w=%d", c.workers), probeBudget, reset, func() error {
			nd, err := lwe.PackResident(p, work, keys, c.workers)
			if err == nil {
				lwe.FlushInto(p, out, nd)
			}
			return err
		})
		if err != nil {
			return err
		}
		m[c.name] = metric{t, "ms"}
	}
	return nil
}

// coreProbe carries core timings other probes compare against.
type coreProbe struct {
	apply1, applyWN float64 // ms per warm ApplyInto
	res             *core.Result
}

// probeCore measures the prepared-matrix layer on tenant 0's matrix.
func probeCore(w *spec, fx *fixture, rec *recorder, root int, peak float64, m map[string]metric) (*coreProbe, error) {
	p := fx.p
	ev, err := core.NewEvaluatorFromKeys(p, fx.keys)
	if err != nil {
		return nil, err
	}
	A := fx.mats[0]
	var pm *core.PreparedMatrix
	prep, err := timeEach(rec, root, "core.Evaluator.Prepare", 0, runtime.GC, func() error {
		pm, err = ev.Prepare(A)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["core.prepare_ms"] = metric{prep, "ms"}

	cp := &coreProbe{res: pm.NewResult()}
	ct, want := fx.cts[0], fx.want[0][0]
	applyAt := func(workers int) (float64, error) {
		ev.Workers = workers
		t, err := timeEach(rec, root, fmt.Sprintf("core.ApplyInto w=%d", workers), probeBudget, nil, func() error {
			return pm.ApplyInto(cp.res, ct)
		})
		if err != nil {
			return 0, err
		}
		return t, checkVec(core.DecryptResult(p, cp.res, fx.sk), want)
	}
	if cp.apply1, err = applyAt(1); err != nil {
		return nil, err
	}
	if cp.applyWN, err = applyAt(nproc); err != nil {
		return nil, err
	}
	m["core.apply_w1_ms"] = metric{cp.apply1, "ms"}
	m["core.apply_wN_ms"] = metric{cp.applyWN, "ms"}
	m["core.parallel_eff"] = metric{cp.apply1 / (float64(nproc) * cp.applyWN), "frac"}

	// Allocations per warm apply at nproc workers.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < minReps; i++ {
		if err := pm.ApplyInto(cp.res, ct); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	m["core.apply_allocs"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / minReps, "count"}

	// Batched apply over K lanes, and the same lanes through chamnp.
	k := max(w.lanes, nproc)
	vecs := make([][]*rlwe.Ciphertext, k)
	results := make([]*core.Result, k)
	for j := range vecs {
		vecs[j], results[j] = fx.cts[j%len(fx.cts)], pm.NewResult()
	}
	batch, err := timeEach(rec, root, fmt.Sprintf("core.ApplyBatchInto k=%d", k), probeBudget, nil, func() error {
		return pm.ApplyBatchInto(results, vecs)
	})
	if err != nil {
		return nil, err
	}
	for j, r := range results {
		if err := checkVec(core.DecryptResult(p, r, fx.sk), fx.want[0][j%len(fx.cts)]); err != nil {
			return nil, err
		}
	}
	m["core.batch_per_vec_ms"] = metric{batch / float64(k), "ms"}
	if err := probeChamnp(fx, pm, k, batch, rec, root, m); err != nil {
		return nil, err
	}

	// Stage split of warm applies at one worker.
	ev.Workers = 1
	before := obs.Default().Snapshot()
	var wall time.Duration
	for i := 0; i < minReps; i++ {
		id := rec.begin("core.ApplyInto w=1 staged", root)
		t0 := time.Now()
		err := pm.ApplyInto(cp.res, ct)
		wall += time.Since(t0)
		rec.end(id, 1, err)
		if err != nil {
			return nil, err
		}
	}
	sd := delta(before, obs.Default().Snapshot())
	attributed := 0.0
	for _, s := range obs.StageNames {
		attributed += sd.get("cham_hmvp_stage_seconds", "stage", s).sum
	}
	for _, s := range []string{"row_mul", "pack", "decompose", "key_switch", "moddown", "extract", "ntt", "intt"} {
		m["core.stage."+s+"_frac"] = metric{sd.get("cham_hmvp_stage_seconds", "stage", s).sum / wall.Seconds(), "frac"}
	}
	m["core.stage_unattributed_frac"] = metric{1 - attributed/wall.Seconds(), "frac"}

	rows, cols := pm.Rows(), pm.Cols()
	mods := core.HMVPOps(p.R.N, p.NormalLevels, p.R.Levels(), rows, cols).ModMuls(p.R.N)
	m["core.achieved_over_ntt_peak"] = metric{float64(mods) / (cp.apply1 / 1e3) / peak, "frac"}
	var limbBits []int
	for _, md := range p.R.Moduli {
		limbBits = append(limbBits, bits.Len64(md.Q))
	}
	m["core.bytes_per_apply"] = metric{float64(core.HMVPBytes(p.R.N, p.NormalLevels, p.R.Levels(), rows, cols,
		limbBits, bits.Len64(p.T.Q))), "B_computed"}
	return cp, nil
}

// probeChamnp times MatMulInto over k column-major lanes against the
// ApplyBatchInto time of the same lane values (batch ms).
func probeChamnp(fx *fixture, pm *core.PreparedMatrix, k int, batch float64, rec *recorder, root int, m map[string]metric) error {
	p := fx.p
	data := make([][]uint64, pm.Cols())
	for i := range data {
		data[i] = make([]uint64, k)
		for j := range data[i] {
			data[i][j] = fx.plain[j%len(fx.plain)][i]
		}
	}
	x, err := chamnp.Array(p, rand.New(rand.NewSource(int64(k))), fx.sk, data, chamnp.ColMajor)
	if err != nil {
		return err
	}
	b := chamnp.Local(pm)
	dst, err := chamnp.NewMatMulResult(b, x)
	if err != nil {
		return err
	}
	mm, err := timeEach(rec, root, fmt.Sprintf("chamnp.MatMulInto lanes=%d", k), probeBudget, nil, func() error {
		return chamnp.MatMulInto(b, dst, x)
	})
	if err != nil {
		return err
	}
	got := dst.Decrypt(fx.sk)
	for j := 0; j < k; j++ {
		want := fx.want[0][j%len(fx.plain)]
		for r := range want {
			if got[r][j] != want[r] {
				return fmt.Errorf("%w: chamnp lane %d row %d", errWrong, j, r)
			}
		}
	}
	m["chamnp.matmul_ms"] = metric{mm, "ms"}
	m["chamnp.overhead_frac"] = metric{(mm - batch) / mm, "frac"}
	return nil
}

// remoteProbe is the outcome of timing client.Apply against a tier.
type remoteProbe struct {
	lat    float64  // median ms per apply
	d      regDelta // registry change over the timed applies
	groups int      // owner groups the applies fanned out to
	split  float64  // tile split of the tier
}

// probeRemote starts a tier (one server, or shards behind a gateway),
// registers tenant 0's matrix, warms it with one verified apply, and
// times verified client.Apply calls.
func probeRemote(fx *fixture, cfg server.Config, shards int, rec *recorder, root int, name string) (*remoteProbe, error) {
	tr, err := startTier(fx.p, cfg, shards, probePorts)
	if err != nil {
		return nil, err
	}
	defer tr.close()
	cl, hs, err := dialAndRegister(tr.addr, fx.p, fx.keys, fx.mats[:1])
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	var replies []wire.Result
	apply := func() error {
		res, err := cl.Apply(hs[0].ID, fx.cts[0])
		replies = append(replies, res)
		return err
	}
	if err := apply(); err != nil { // lazy tiles prepared here, untimed
		return nil, err
	}
	before := obs.Default().Snapshot()
	lat, err := timeEach(rec, root, name, probeBudget, nil, apply)
	if err != nil {
		return nil, err
	}
	rp := &remoteProbe{lat: lat, d: delta(before, obs.Default().Snapshot())}
	for _, res := range replies {
		if err := checkWire(fx.p, fx.sk, res, fx.want[0][0]); err != nil {
			return nil, err
		}
	}
	if shards > 0 {
		_, legs := tr.placement(hs)
		rp.groups = (len(replies) - 1) * legs[0]
		rp.split = tr.tileSplit(hs)
	}
	return rp, nil
}
