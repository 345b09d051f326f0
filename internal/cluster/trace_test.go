package cluster

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"cham/internal/client"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/obs/trace"
	rt "cham/internal/runtime"
	"cham/internal/server"
	"cham/internal/testutil"
)

// TestClusterTraceEndToEnd is the tracing acceptance test (run under
// -race in tier 1): one sampled apply through client → gateway →
// coordinator → 2 shards must land in the span ring as ONE trace whose
// tree covers the gateway, both shard legs, the shard servers' queue /
// dispatch / serve spans, the runtime card job, and the kernel stages.
// Everything runs in-process, so the single ring already holds the
// "merged" view chamtrace assembles from many nodes.
func TestClusterTraceEndToEnd(t *testing.T) {
	// The rate must be up before anything dials: connections negotiate
	// the traced frame version only while sampling is enabled.
	trace.Reset()
	trace.SetSampleRate(1)
	defer trace.SetSampleRate(0)
	defer trace.Reset()

	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}

	// Cards on the shards so the trace includes runtime job spans.
	co, _ := newCluster(t, p, 2, func(c *server.Config) {
		card, err := rt.New(rt.NewDevice(1, 50*time.Microsecond, rt.FaultPlan{}))
		if err != nil {
			t.Fatal(err)
		}
		c.Card = card
	}, func(c *Config) {
		// Trace shape only: a hedge (tested in cluster_test.go) leaves the losing leg's spans open.
		c.HedgeDelay = time.Minute
	})
	if _, err := co.SetupKeys(keys); err != nil {
		t.Fatal(err)
	}
	// 4096 rows at N=32 → 128 tiles, so the consistent-hash ring puts
	// tiles on both shards and the scatter opens both legs.
	A := testutil.Matrix(rng, 4096, 32, p.T.Q)
	handle, err := co.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}

	gw, err := NewGateway(GatewayConfig{Coordinator: co})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
	})

	cl, err := client.Dial(client.Config{Addr: ln.Addr().String(), Params: p})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	v := testutil.Vector(rng, 32, p.T.Q)
	ctV := core.EncryptVector(p, rng, sk, v)
	tc, sp := trace.Root("test-client", "apply")
	if !tc.Sampled() {
		t.Fatal("rate-1 sampler did not admit the request")
	}
	res, err := cl.ApplyTraced(tc, handle.ID, ctV)
	sp.EndErr(err)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packed) != 128 {
		t.Fatalf("gathered %d tiles, want 128", len(res.Packed))
	}

	recs := trace.TraceRecords(tc.Trace)
	if len(recs) == 0 {
		t.Fatal("no spans recorded for the sampled trace")
	}
	type key struct{ service, name string }
	seen := map[key]int{}
	kernelStages := 0
	for _, r := range recs {
		if r.Trace != tc.Trace {
			t.Fatalf("span %s/%s carries trace %s, want %s", r.Service, r.Name, r.Trace, tc.Trace)
		}
		seen[key{r.Service, r.Name}]++
		if r.Service == "kernel" && strings.HasPrefix(r.Name, "stage:") {
			kernelStages++
		}
	}
	for _, want := range []key{
		{"test-client", "apply"},
		{"client", "send:Apply"},
		{"gateway", "apply"},
		{"coordinator", "scatter"},
		{"coordinator", "shard:0"},
		{"coordinator", "shard:1"},
		{"coordinator", "gather"},
		{"server", "queue"},
		{"server", "dispatch"},
		{"server", "serve"},
		{"runtime", "job"},
	} {
		if seen[want] == 0 {
			t.Errorf("merged trace is missing the %s/%s span (spans: %v)", want.service, want.name, seen)
		}
	}
	// Both shards ran tiles, so queue/serve spans appear at least twice.
	if n := seen[key{"server", "serve"}]; n < 2 {
		t.Errorf("only %d server serve span(s); both shards should have served tiles", n)
	}
	if kernelStages == 0 {
		t.Error("no kernel stage spans bridged from the StageClock")
	}

	// The text renderer must produce one tree with a critical path.
	var sb strings.Builder
	if err := trace.WriteText(&sb, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "critical path") {
		t.Fatalf("text export lacks a critical path:\n%s", sb.String())
	}
}
