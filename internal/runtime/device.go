// Package runtime implements the software stack of CHAM's heterogeneous
// system (§III-C): a driver for a (simulated) CHAM FPGA card and a
// runtime that provides job submission on top, with the paper's
// reliability/availability/serviceability (RAS) features — register
// loading error handling, hang detection with reset, and health
// monitoring.
//
// The device is a software stand-in: a register file with parity,
// per-engine job execution, DMA accounting, and a fault-injection plan
// that tests use to exercise every recovery path. A job's latency is
// either the flat per-job duration given to NewDevice or, after
// SetRowLatency, base + perRow × the descriptor's row count; it is not
// derived from the cycle-level pipeline model.
package runtime

import (
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// Register map of the simulated card.
const (
	RegMagic     uint32 = 0x0000 // reads back MagicValue when alive
	RegVersion   uint32 = 0x0004
	RegEngineCnt uint32 = 0x0008
	RegTempMilli uint32 = 0x000C // die temperature, milli-degrees C
	RegHeartbeat uint32 = 0x0010 // increments while the card is alive
	RegDoorbell  uint32 = 0x0020 // write engine id to start its job
	RegJobStatus uint32 = 0x0030 // per-engine status base (one word each)
	RegScratch   uint32 = 0x0100 // start of the loadable configuration
)

// MagicValue identifies a responsive CHAM card.
const MagicValue = 0xC4A30001

// Job statuses stored at RegJobStatus + engine.
const (
	JobIdle uint64 = iota
	JobRunning
	JobDone
	JobError
)

// FaultPlan injects failures; zero value = healthy card.
type FaultPlan struct {
	// CorruptWriteEvery flips a bit on every k-th register write (the
	// "register loading error" the driver must catch by read-back).
	CorruptWriteEvery int
	// HangAfterJobs makes the card stop responding after n completed
	// jobs, until reset.
	HangAfterJobs int
	// FailJobEvery marks every k-th job as JobError.
	FailJobEvery int
	// OverheatAfterJobs drives the temperature register past the trip
	// point after n jobs.
	OverheatAfterJobs int
}

// Device simulates one CHAM card.
type Device struct {
	mu        sync.Mutex
	regs      map[uint32]uint64
	engines   int
	hung      bool
	writes    int
	jobsDone  int
	resets    int
	faults    FaultPlan
	jobDur    time.Duration // simulated per-job latency (flat model)
	rowBase   time.Duration // descriptor-aware model: fixed dispatch cost
	rowPer    time.Duration // descriptor-aware model: per-row pipeline cost
	pending   map[int]*time.Timer
	heartbeat uint64
}

// NewDevice creates a card with the given engine count and simulated
// per-job duration (tests use microseconds; a real HMVP takes ~100 ms).
func NewDevice(engines int, jobDur time.Duration, faults FaultPlan) *Device {
	d := &Device{
		regs:    map[uint32]uint64{},
		engines: engines,
		faults:  faults,
		jobDur:  jobDur,
		pending: map[int]*time.Timer{},
	}
	d.powerOn()
	return d
}

func (d *Device) powerOn() {
	d.regs[RegMagic] = MagicValue
	d.regs[RegVersion] = 0x0203 // "v2.3", the VU9P production build
	d.regs[RegEngineCnt] = uint64(d.engines)
	d.regs[RegTempMilli] = 45000
	for e := 0; e < d.engines; e++ {
		d.regs[RegJobStatus+uint32(4*e)] = JobIdle
	}
}

// WriteReg writes a register, possibly corrupted per the fault plan.
// The driver must verify by read-back.
func (d *Device) WriteReg(addr uint32, v uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hung {
		return // writes vanish while hung
	}
	d.writes++
	if k := d.faults.CorruptWriteEvery; k > 0 && d.writes%k == 0 {
		v ^= 1 << (uint(d.writes) % 63) // flip a bit
	}
	d.regs[addr] = v
	if addr == RegDoorbell {
		d.startJob(int(v))
	}
}

// ReadReg reads a register; a hung card returns all-ones (the PCIe
// timeout pattern a real host observes).
func (d *Device) ReadReg(addr uint32) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hung {
		return ^uint64(0)
	}
	if addr == RegHeartbeat {
		d.heartbeat++
		return d.heartbeat
	}
	return d.regs[addr]
}

// SetRowLatency switches the card to a descriptor-aware latency model:
// each job takes base + perRow × Rows, with Rows read from the engine's
// loaded configuration (word 0 carries Rows<<32|Cols under the parity
// seal). This is how the simulation reflects the pipeline-model fact that
// HMVP wall time is dominated by the per-row dot products — a shard
// serving half a matrix's tiles finishes its card job in half the time.
// perRow = 0 restores the flat jobDur model.
func (d *Device) SetRowLatency(base, perRow time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rowBase, d.rowPer = base, perRow
}

// startJob begins executing on an engine (caller holds the lock).
func (d *Device) startJob(engine int) {
	if engine < 0 || engine >= d.engines {
		return
	}
	statusAddr := RegJobStatus + uint32(4*engine)
	if d.regs[statusAddr] == JobRunning {
		return // doorbell on a busy engine is ignored
	}
	d.regs[statusAddr] = JobRunning
	dur := d.jobDur
	if d.rowPer > 0 {
		dur = d.rowBase
		// Word 0 of this engine's configuration; a corrupt word falls back
		// to the fixed cost (the driver's read-back catches it anyway).
		if w, err := checkWord(d.regs[RegScratch+uint32(0x40*engine)]); err == nil {
			dur += time.Duration(w>>32) * d.rowPer
		}
	}
	t := time.AfterFunc(dur, func() { d.finishJob(engine) })
	d.pending[engine] = t
}

func (d *Device) finishJob(engine int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hung {
		return
	}
	delete(d.pending, engine)
	d.jobsDone++
	status := JobDone
	if k := d.faults.FailJobEvery; k > 0 && d.jobsDone%k == 0 {
		status = JobError
	}
	d.regs[RegJobStatus+uint32(4*engine)] = status
	if n := d.faults.HangAfterJobs; n > 0 && d.jobsDone >= n {
		d.hung = true
		d.faults.HangAfterJobs = 0 // hang once; reset clears it
	}
	if n := d.faults.OverheatAfterJobs; n > 0 && d.jobsDone >= n {
		d.regs[RegTempMilli] = 99000
	}
}

// Reset power-cycles the card: pending jobs are lost, registers reload.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for e, t := range d.pending {
		t.Stop()
		delete(d.pending, e)
	}
	d.hung = false
	d.resets++
	d.regs = map[uint32]uint64{}
	d.powerOn()
}

// Stats reports lifetime counters for monitoring tests.
func (d *Device) Stats() (jobsDone, resets int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.jobsDone, d.resets
}

// parity31 computes the odd-parity bit the driver folds into
// configuration words so read-back can detect corrupted loads.
func parity31(v uint64) uint64 {
	return uint64(bits.OnesCount64(v&^(1<<63))&1) ^ 1
}

// sealWord packs a 63-bit payload with its parity bit.
func sealWord(v uint64) (uint64, error) {
	if v>>63 != 0 {
		return 0, fmt.Errorf("runtime: payload exceeds 63 bits")
	}
	return v | parity31(v)<<63, nil
}

// checkWord validates parity and strips it.
func checkWord(w uint64) (uint64, error) {
	if w>>63 != parity31(w) {
		return 0, fmt.Errorf("runtime: register parity error")
	}
	return w &^ (1 << 63), nil
}
