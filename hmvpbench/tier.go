package main

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"cham/internal/bfv"
	"cham/internal/cluster"
	"cham/internal/server"
	"cham/internal/wire"
)

// tier is an in-process serving tier on loopback: one server, or shard
// servers behind a cluster gateway. addr is where clients connect.
type tier struct {
	addr    string
	servers []*server.Server
	co      *cluster.Coordinator
	gw      *cluster.Gateway
	serving sync.WaitGroup // Serve loops
}

// Shard i of a tier listens on loopback port basePort+i when that port is
// free. Shard addresses name the nodes of the consistent-hash ring, so
// fixed ports keep the tile placement a function of the matrix content
// (and so of the seed) alone instead of changing with every ephemeral
// port the kernel hands out.
const (
	loadPorts  = 47310
	probePorts = 47320
)

// startTier starts one server with cfg, or shards servers with cfg
// behind a gateway when shards > 0, the shards on ports from basePort.
func startTier(p bfv.Params, cfg server.Config, shards, basePort int) (*tier, error) {
	t := &tier{}
	n := shards
	if n == 0 {
		n = 1
	}
	var addrs []string
	for i := 0; i < n; i++ {
		s, err := server.New(cfg)
		if err != nil {
			t.close()
			return nil, err
		}
		addr := "127.0.0.1:0"
		if shards > 0 {
			addr = fmt.Sprintf("127.0.0.1:%d", basePort+i)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil && shards > 0 {
			ln, err = net.Listen("tcp", "127.0.0.1:0")
		}
		if err != nil {
			t.close()
			return nil, err
		}
		t.servers = append(t.servers, s)
		t.serve(func() { s.Serve(ln) })
		addrs = append(addrs, ln.Addr().String())
	}
	t.addr = addrs[0]
	if shards == 0 {
		return t, nil
	}
	co, err := cluster.New(cluster.Config{Params: p, Nodes: addrs})
	if err != nil {
		t.close()
		return nil, err
	}
	t.co = co
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Coordinator: co})
	if err != nil {
		t.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.gw = gw
	t.serve(func() { gw.Serve(ln) })
	t.addr = ln.Addr().String()
	return t, nil
}

func (t *tier) serve(loop func()) {
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		loop()
	}()
}

// close drains the gateway, the coordinator's node clients and every
// server, then waits for the Serve loops to return.
func (t *tier) close() error {
	ctx, cancel := drainCtx()
	defer cancel()
	var errs []error
	if t.gw != nil {
		errs = append(errs, t.gw.Shutdown(ctx))
	}
	if t.co != nil {
		t.co.Close()
	}
	for _, s := range t.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	t.serving.Wait()
	return errors.Join(errs...)
}

// placement assigns every tile of every handle to its owner shard and
// returns the tiles per shard and the owner groups (scatter legs) one
// apply of each handle fans out to.
func (t *tier) placement(handles []wire.MatrixHandle) (perShard []int, legs []int) {
	if t.co == nil {
		return nil, nil
	}
	ring, err := cluster.NewRing(t.co.Nodes(), 0)
	if err != nil {
		return nil, nil
	}
	perShard = make([]int, len(ring.Nodes()))
	for _, h := range handles {
		groups := 0
		for node, list := range ring.Assign(h.ID, int(h.Tiles)) {
			perShard[node] += len(list)
			if len(list) > 0 {
				groups++
			}
		}
		legs = append(legs, groups)
	}
	return perShard, legs
}

// tileSplit is the most tiles on one shard divided by the mean tiles per
// shard (1 is an even split; 0 without a cluster).
func (t *tier) tileSplit(handles []wire.MatrixHandle) float64 {
	perShard, _ := t.placement(handles)
	if len(perShard) == 0 {
		return 0
	}
	most, total := 0, 0
	for _, c := range perShard {
		total += c
		most = max(most, c)
	}
	return float64(most) * float64(len(perShard)) / float64(total)
}
