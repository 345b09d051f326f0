package server

import (
	"bytes"
	"crypto/sha256"
	"sort"
	"time"

	"cham/internal/core"
	"cham/internal/obs/trace"
	"cham/internal/wire"
)

// advertise is the server's handshake reply; Engines is the mirrored
// card's engine count (0 without a card).
func (s *Server) advertise() wire.HelloOK {
	ok := wire.HelloOK{Hello: wire.HelloFor(s.cfg.Params), MaxBatch: uint32(s.cfg.MaxBatch)}
	if s.cfg.Card != nil {
		ok.Engines = uint32(s.cfg.Card.Engines())
	}
	return ok
}

// route serves the request types the server supplies behind its door.
func (s *Server) route(c *Conn, t wire.MsgType, seq uint16, tc trace.Context, payload []byte) bool {
	switch t {
	case wire.MsgSetupKeys:
		s.handleSetupKeys(c, seq, payload)
	case wire.MsgRegisterMatrix:
		s.handleRegisterMatrix(c, seq, payload)
	case wire.MsgApply, wire.MsgTileApply:
		s.handleApply(c, t, seq, tc, payload)
	case wire.MsgRegistrySync:
		s.handleRegistrySync(c, seq, payload)
	default:
		return false
	}
	return true
}

// handleSetupKeys installs the packing-key set. One key set per server:
// re-sending the same set (by canonical hash) is idempotent, a different
// set is a conflict — registered matrices are prepared against the
// installed keys and silently swapping them would corrupt results.
func (s *Server) handleSetupKeys(c *Conn, seq uint16, payload []byte) {
	hash, we := s.installKeys(payload)
	if we != nil {
		c.SendErr(seq, we)
		return
	}
	c.Send(wire.MsgSetupKeysOK, seq, wire.SetupKeysOK{KeyHash: hash}.Encode())
}

// installKeys is the shared key-install path behind SetupKeys and the
// registry push a joining node receives.
func (s *Server) installKeys(payload []byte) ([32]byte, *wire.Error) {
	r := s.cfg.Params.R
	keys, err := wire.DecodeSetupKeys(r, payload)
	if err != nil {
		return [32]byte{}, wire.Errf(wire.CodeBadRequest, "setup keys: %v", err)
	}
	// Hash the canonical re-encoding, not the received payload, so the
	// idempotency check is about key content rather than byte layout. The
	// canonical form is kept for registry replication to joining nodes.
	canonical := wire.EncodeSetupKeys(r, keys)
	hash := sha256.Sum256(canonical)

	s.mu.Lock()
	if s.haveKeys {
		same := s.keyHash == hash
		installed := s.keyHash
		s.mu.Unlock()
		if same {
			return hash, nil
		}
		return [32]byte{}, wire.Errf(wire.CodeKeysConflict,
			"server already holds key set %x", installed[:8])
	}
	ev, err := core.NewEvaluatorFromKeys(s.cfg.Params, keys)
	if err != nil {
		s.mu.Unlock()
		return [32]byte{}, wire.Errf(wire.CodeBadRequest, "setup keys: %v", err)
	}
	ev.Workers = s.cfg.EvalWorkers
	s.ev = ev
	s.keyHash = hash
	s.keysPayload = canonical
	s.haveKeys = true
	s.mu.Unlock()
	return hash, nil
}

// handleRegisterMatrix prepares a matrix once and names it by content
// hash. Re-registering is idempotent and cheap: the hash lookup answers
// from the registry without touching the NTT.
func (s *Server) handleRegisterMatrix(c *Conn, seq uint16, payload []byte) {
	reg, we := s.registerPayload(payload)
	if we != nil {
		c.SendErr(seq, we)
		return
	}
	c.Send(wire.MsgMatrixHandle, seq, reg.handle.Encode())
}

// registerPayload is the shared registration path behind RegisterMatrix
// and the registry push. In LazyTiles mode no tile is prepared yet — the
// cleartext is retained and tiles materialize on first use.
func (s *Server) registerPayload(payload []byte) (*regMatrix, *wire.Error) {
	s.mu.RLock()
	ev := s.ev
	s.mu.RUnlock()
	if ev == nil {
		return nil, wire.Errf(wire.CodeKeysRequired, "register matrix before SetupKeys")
	}
	// The RegisterMatrix layout is canonical (rows, cols, row-major values),
	// so the payload hash IS wire.MatrixID of the decoded matrix.
	id := sha256.Sum256(payload)
	s.mu.RLock()
	reg := s.matrices[id]
	s.mu.RUnlock()
	if reg != nil {
		return reg, nil
	}
	A, err := wire.DecodeRegisterMatrix(s.cfg.Params.T.Q, payload)
	if err != nil {
		return nil, wire.Errf(wire.CodeBadRequest, "register matrix: %v", err)
	}
	// Prepare outside the lock: it is the expensive half of the pipeline and
	// must not block concurrent applies against other matrices.
	var pm *core.PreparedMatrix
	if s.cfg.LazyTiles {
		pm, err = ev.PrepareTiles(A, []int{})
	} else {
		pm, err = ev.Prepare(A)
	}
	if err != nil {
		return nil, wire.Errf(wire.CodeBadRequest, "prepare: %v", err)
	}
	reg = &regMatrix{
		pm: pm,
		handle: wire.MatrixHandle{
			ID:     id,
			Rows:   uint32(pm.Rows()),
			Cols:   uint32(pm.Cols()),
			Chunks: uint32(pm.Chunks()),
			Tiles:  uint32(pm.Tiles()),
		},
		packLog2: packRowsLog2(pm.Rows(), s.cfg.Params.R.N),
		payload:  append([]byte(nil), payload...),
	}
	if s.cfg.LazyTiles {
		reg.A = A
	}
	s.mu.Lock()
	if prior := s.matrices[id]; prior != nil {
		reg = prior // a concurrent registration won; use its prepared form
	} else {
		s.matrices[id] = reg
		mMatrices.Set(float64(len(s.matrices)))
	}
	s.mu.Unlock()
	return reg, nil
}

// packRowsLog2 is log2 of the largest padded tile for an m-row matrix
// over ring degree n (the card descriptor's pack-tree depth).
func packRowsLog2(m, n int) uint8 {
	rows := m
	if rows > n {
		rows = n
	}
	l := uint8(0)
	for 1<<l < rows {
		l++
	}
	return l
}

// handleApply decodes, validates and admits one Apply or TileApply; the
// response is sent later by a batch worker. A full apply is a tile apply
// over every tile (tiles nil). Everything the request claims is checked
// before any lazy tile preparation, so a malformed request cannot buy a
// Prepare. A warm TileApply stops after preparing its tiles.
func (s *Server) handleApply(c *Conn, t wire.MsgType, seq uint16, tc trace.Context, payload []byte) {
	s.mu.RLock()
	haveKeys := s.haveKeys
	s.mu.RUnlock()
	if !haveKeys {
		c.SendErr(seq, wire.Errf(wire.CodeKeysRequired, "%v before SetupKeys", t))
		return
	}
	var a wire.TileApply
	var err error
	if t == wire.MsgApply {
		var full wire.Apply
		full, err = wire.DecodeApply(s.cfg.Params.R, payload)
		a = wire.TileApply{ID: full.ID, DeadlineMicros: full.DeadlineMicros, Vector: full.Vector}
	} else {
		a, err = wire.DecodeTileApply(s.cfg.Params.R, payload)
	}
	if err != nil {
		c.SendErr(seq, wire.Errf(wire.CodeBadRequest, "%v: %v", t, err))
		return
	}
	s.mu.RLock()
	reg := s.matrices[a.ID]
	s.mu.RUnlock()
	if reg == nil {
		c.SendErr(seq, wire.Errf(wire.CodeUnknownMatrix, "matrix %x not registered", a.ID[:8]))
		return
	}
	for _, ti := range a.Tiles {
		if ti >= reg.handle.Tiles {
			c.SendErr(seq, wire.Errf(wire.CodeBadRequest,
				"tile %d out of range (matrix has %d tiles)", ti, reg.handle.Tiles))
			return
		}
	}
	if !a.Warm && len(a.Vector) != int(reg.handle.Chunks) {
		c.SendErr(seq, wire.Errf(wire.CodeBadRequest,
			"vector has %d chunks, matrix needs %d", len(a.Vector), reg.handle.Chunks))
		return
	}
	if s.cfg.LazyTiles {
		// Prepare the missing tiles before admission so batch workers
		// never block on the preparation lock.
		if we := s.ensureTiles(reg, a.Tiles); we != nil {
			c.SendErr(seq, we)
			return
		}
	}
	if a.Warm {
		// Preparation was the work; acknowledge with an empty result
		// carrying the matrix header.
		c.Send(wire.MsgTileResult, seq, wire.EncodeTileResult(s.cfg.Params.R, wire.TileResult{
			M: reg.handle.Rows,
			N: uint32(s.cfg.Params.R.N),
		}))
		return
	}
	budget := s.cfg.DefaultDeadline
	if a.DeadlineMicros > 0 {
		if d := time.Duration(a.DeadlineMicros) * time.Microsecond; d < budget {
			budget = d
		}
	}
	now := time.Now()
	req := &request{
		mat:      reg,
		vec:      a.Vector,
		tiles:    a.Tiles,
		conn:     c,
		seq:      seq,
		enqueued: now,
		deadline: now.Add(budget),
		tc:       tc,
	}
	_, req.qspan = trace.Start(tc, "server", "queue")
	e := s.Admit(func() *wire.Error {
		select {
		case s.queue <- req:
			mQueueDepth.Add(1)
			return nil
		default:
			return wire.Errf(wire.CodeOverloaded, "admission queue full (%d deep)", s.cfg.QueueDepth)
		}
	})
	if e != nil {
		req.qspan.EndErr(e)
		c.SendErr(seq, e)
	}
}

// ensureTiles prepares any listed tiles of a LazyTiles matrix that are
// still missing (nil = every tile). The per-matrix lock serializes
// preparation; applies only read tiles that some admission already
// prepared, so the lock is never held on the batch-worker path.
func (s *Server) ensureTiles(reg *regMatrix, tiles []uint32) *wire.Error {
	reg.prepMu.Lock()
	defer reg.prepMu.Unlock()
	nt := int(reg.handle.Tiles)
	for i := 0; i < nt; i++ {
		ti := i
		if tiles != nil {
			if i >= len(tiles) {
				break
			}
			ti = int(tiles[i])
		}
		if reg.pm.HasTile(ti) {
			continue
		}
		if err := reg.pm.PrepareTile(reg.A, ti); err != nil {
			return wire.Errf(wire.CodeBadRequest, "prepare tile %d: %v", ti, err)
		}
		mTilesPrepared.Inc()
	}
	return nil
}

// handleRegistrySync replicates the matrix registry. A pull answers with
// the installed key set and every registered matrix in canonical payload
// form (sorted by content hash, so the transfer is deterministic); a push
// installs what it carries — idempotently, since payload hashes are the
// identities — and acknowledges with the resulting registry header.
func (s *Server) handleRegistrySync(c *Conn, seq uint16, payload []byte) {
	sy, err := wire.DecodeRegistrySync(payload)
	if err != nil {
		c.SendErr(seq, wire.Errf(wire.CodeBadRequest, "registry sync: %v", err))
		return
	}
	if sy.Push {
		if len(sy.Keys) > 0 {
			if _, we := s.installKeys(sy.Keys); we != nil {
				c.SendErr(seq, we)
				return
			}
		}
		for i, m := range sy.Matrices {
			if _, we := s.registerPayload(m); we != nil {
				c.SendErr(seq, wire.Errf(we.Code, "registry push matrix %d: %s", i, we.Detail))
				return
			}
		}
		mRegistrySyncs.Inc()
		s.mu.RLock()
		st := wire.RegistryState{KeyHash: s.keyHash}
		s.mu.RUnlock()
		c.Send(wire.MsgRegistryState, seq, st.Encode())
		return
	}
	s.mu.RLock()
	st := wire.RegistryState{KeyHash: s.keyHash, Keys: s.keysPayload}
	ids := make([][32]byte, 0, len(s.matrices))
	for id := range s.matrices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return bytes.Compare(ids[i][:], ids[j][:]) < 0 })
	for _, id := range ids {
		st.Matrices = append(st.Matrices, s.matrices[id].payload)
	}
	s.mu.RUnlock()
	mRegistrySyncs.Inc()
	c.Send(wire.MsgRegistryState, seq, st.Encode())
}
