package cluster

import (
	"errors"
	"fmt"
	"time"

	"cham/internal/obs"
	"cham/internal/obs/trace"
	"cham/internal/server"
	"cham/internal/wire"
)

// GatewayConfig shapes a Gateway.
type GatewayConfig struct {
	// Coordinator owns the shard map (required).
	Coordinator *Coordinator
	// MaxFrame bounds one accepted wire frame. Default wire.DefaultMaxFrame.
	MaxFrame uint32
}

var mGatewayConns = obs.GetGauge("cham_cluster_gateway_connections",
	"Open client connections on the cluster gateway.")

// Gateway is the cluster's wire-compatible front door: it serves the
// exact chamserve protocol through the same server.Door a chamserve node
// uses, so an unmodified client sees one big server while the
// coordinator scatters the work across shards behind it. Control-plane
// messages are broadcast to every node; Apply is scatter/gather, run
// inline on the connection's read goroutine under the door's drain
// barrier. Shutdown drains the gateway only — the shard nodes belong to
// their own processes.
type Gateway struct {
	*server.Door
	co *Coordinator
}

// NewGateway builds a gateway over a coordinator.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Coordinator == nil {
		return nil, fmt.Errorf("cluster: GatewayConfig.Coordinator is required")
	}
	g := &Gateway{co: cfg.Coordinator}
	g.Door = server.NewDoor("gateway", g.co.cfg.Log, cfg.MaxFrame, mGatewayConns, g.advertise, g.route)
	return g, nil
}

// advertise is the gateway's handshake reply: Engines is the cluster
// width, and batching happens on the shards, so MaxBatch is 1.
func (g *Gateway) advertise() wire.HelloOK {
	return wire.HelloOK{Hello: wire.HelloFor(g.co.cfg.Params), Engines: uint32(len(g.co.Nodes())), MaxBatch: 1}
}

// route serves the request types the gateway supplies; TileApply and
// RegistrySync are shard-facing and rejected as unexpected here.
func (g *Gateway) route(c *server.Conn, t wire.MsgType, seq uint16, tc trace.Context, payload []byte) bool {
	switch t {
	case wire.MsgSetupKeys:
		g.handleSetupKeys(c, seq, payload)
	case wire.MsgRegisterMatrix:
		g.handleRegisterMatrix(c, seq, payload)
	case wire.MsgApply:
		g.handleApply(c, seq, tc, payload)
	default:
		return false
	}
	return true
}

// wireErr maps a coordinator failure onto the typed wire vocabulary:
// degraded scatters become CodeDegraded, typed shard rejections pass
// through, anything else is internal.
func wireErr(err error) *wire.Error {
	var de *DegradedError
	if errors.As(err, &de) {
		return de.Wire()
	}
	var we *wire.Error
	if errors.As(err, &we) {
		return we
	}
	return wire.Errf(wire.CodeInternal, "%v", err)
}

func (g *Gateway) handleSetupKeys(c *server.Conn, seq uint16, payload []byte) {
	keys, err := wire.DecodeSetupKeys(g.co.cfg.Params.R, payload)
	if err != nil {
		c.SendErr(seq, wire.Errf(wire.CodeBadRequest, "setup keys: %v", err))
		return
	}
	hash, err := g.co.SetupKeys(keys)
	if err != nil {
		c.SendErr(seq, wireErr(err))
		return
	}
	c.Send(wire.MsgSetupKeysOK, seq, wire.SetupKeysOK{KeyHash: hash}.Encode())
}

func (g *Gateway) handleRegisterMatrix(c *server.Conn, seq uint16, payload []byte) {
	A, err := wire.DecodeRegisterMatrix(g.co.cfg.Params.T.Q, payload)
	if err != nil {
		c.SendErr(seq, wire.Errf(wire.CodeBadRequest, "register matrix: %v", err))
		return
	}
	h, err := g.co.RegisterMatrix(A)
	if err != nil {
		c.SendErr(seq, wireErr(err))
		return
	}
	c.Send(wire.MsgMatrixHandle, seq, h.Encode())
}

func (g *Gateway) handleApply(c *server.Conn, seq uint16, tc trace.Context, payload []byte) {
	if e := g.Admit(nil); e != nil {
		c.SendErr(seq, e)
		return
	}
	defer g.Done()
	a, err := wire.DecodeApply(g.co.cfg.Params.R, payload)
	if err != nil {
		c.SendErr(seq, wire.Errf(wire.CodeBadRequest, "apply: %v", err))
		return
	}
	// The gateway is a trace edge: a request from a traced client keeps
	// its context; an untraced request may be sampled fresh here, so a
	// cluster fronting old clients still produces end-to-end traces.
	t0 := time.Now()
	var gsp trace.Span
	if tc.Sampled() {
		tc, gsp = trace.Start(tc, "gateway", "apply")
	} else {
		tc, gsp = trace.Root("gateway", "apply")
	}
	res, err := g.co.ApplyTraced(tc, a.ID, a.Vector)
	gsp.EndErr(err)
	if tc.Sampled() {
		g.co.cfg.Log.Debug("gateway apply",
			"trace_id", tc.Trace.String(), "dur", time.Since(t0), "err", err != nil)
	}
	if err != nil {
		c.SendErr(seq, wireErr(err))
		return
	}
	c.Send(wire.MsgResult, seq, wire.EncodeResult(g.co.cfg.Params.R, res))
}
