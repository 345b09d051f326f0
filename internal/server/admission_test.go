package server

import (
	"errors"
	"testing"
	"time"

	"cham/internal/client"
	"cham/internal/core"
	"cham/internal/obs/trace"
	"cham/internal/testutil"
	"cham/internal/wire"
)

// TestLazyValidateBeforePrepare: on a LazyTiles server, an Apply or
// TileApply whose vector has the wrong chunk count is rejected before any
// tile is prepared, so a malformed request cannot buy a Prepare. A
// well-formed apply afterwards still prepares every tile and is served.
func TestLazyValidateBeforePrepare(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	_, addr := testServer(t, Config{Params: p, LazyTiles: true, Linger: time.Millisecond})
	cl := testClient(t, addr, p, func(c *client.Config) { c.MaxRetries = -1 })
	setupKeys(t, cl, p, rng, sk)
	A := testutil.Matrix(rng, 96, 64, p.T.Q)
	handle, err := cl.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}
	if handle.Tiles != 3 || handle.Chunks != 2 {
		t.Fatalf("matrix has %d tiles and %d chunks, want 3 and 2", handle.Tiles, handle.Chunks)
	}
	short := core.EncryptVector(p, rng, sk, testutil.Vector(rng, 32, p.T.Q)) // one chunk

	before := mTilesPrepared.Value()
	for _, call := range []struct {
		name string
		do   func() error
	}{
		{"TileApply", func() error {
			_, err := cl.TileApply(trace.Context{}, handle.ID, []uint32{0, 2}, short)
			return err
		}},
		{"Apply", func() error {
			_, err := cl.Apply(handle.ID, short)
			return err
		}},
	} {
		err := call.do()
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
			t.Fatalf("%s with a wrong chunk count: expected bad_request, got %v", call.name, err)
		}
		if n := mTilesPrepared.Value() - before; n != 0 {
			t.Fatalf("%s with a wrong chunk count prepared %d tiles", call.name, n)
		}
	}

	v := testutil.Vector(rng, 64, p.T.Q)
	res, err := cl.Apply(handle.ID, core.EncryptVector(p, rng, sk, v))
	if err != nil {
		t.Fatal(err)
	}
	if n := mTilesPrepared.Value() - before; n != 3 {
		t.Fatalf("well-formed apply prepared %d tiles, want 3", n)
	}
	dec := core.DecryptResult(p, &core.Result{M: int(res.M), N: int(res.N), Packed: res.Packed}, sk)
	for i, want := range core.PlainMatVec(p, A, v) {
		if dec[i] != want {
			t.Fatalf("row %d decrypts to %d, want %d", i, dec[i], want)
		}
	}
}
