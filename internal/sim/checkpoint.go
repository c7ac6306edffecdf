package sim

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/phys"
)

// Checkpoint is a serializable snapshot of a simulation: the physical
// configuration, progress, and the full particle state. Execution
// parameters (p, c, algorithm) are included so a run can resume with the
// same layout, but a loader is free to override them — the particle
// state is decomposition-independent.
type Checkpoint struct {
	Header    Header
	Particles []phys.Particle
}

// Header is the fixed-size portion of a checkpoint.
type Header struct {
	Step      int64
	N         int64
	P         int64
	C         int64
	Algorithm int64
	Dim       int64
	Boundary  int64
	Seed      uint64
	BoxLength float64
	Cutoff    float64
	DT        float64
	ForceK    float64
	Softening float64
	Lattice   bool
	// Version 2 additions: the potential family and its parameters.
	Potential int64
	Epsilon   float64
	Sigma     float64
}

const (
	checkpointMagic   = 0x43414e42 // "CANB"
	checkpointVersion = 3
)

// The flags word holds Lattice in bit 0. Version 3 set bit 1 for the
// overlapped shift loop, which summed a closed ring's blocks in another
// order and so produced other bits; that loop no longer exists, so a
// checkpoint with the bit set cannot be resumed on the bits it was
// saved on and is refused. No other bit has ever been written.
const (
	flagLattice = 1 << 0
	flagOverlap = 1 << 1
)

// Save writes the checkpoint in the repository's binary format: magic,
// version, header, then the 52-byte wire particles.
func Save(w io.Writer, cp *Checkpoint) error {
	if int(cp.Header.N) != len(cp.Particles) {
		return fmt.Errorf("sim: header N=%d but %d particles", cp.Header.N, len(cp.Particles))
	}
	var scratch [8]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := w.Write(scratch[:4])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := w.Write(scratch[:])
		return err
	}
	if err := writeU32(checkpointMagic); err != nil {
		return fmt.Errorf("sim: save: %w", err)
	}
	if err := writeU32(checkpointVersion); err != nil {
		return fmt.Errorf("sim: save: %w", err)
	}
	h := cp.Header
	flags := uint64(0)
	if h.Lattice {
		flags |= flagLattice
	}
	fields := []uint64{
		uint64(h.Step), uint64(h.N), uint64(h.P), uint64(h.C),
		uint64(h.Algorithm), uint64(h.Dim), uint64(h.Boundary), h.Seed,
		math.Float64bits(h.BoxLength), math.Float64bits(h.Cutoff),
		math.Float64bits(h.DT), math.Float64bits(h.ForceK),
		math.Float64bits(h.Softening), flags,
		uint64(h.Potential), math.Float64bits(h.Epsilon), math.Float64bits(h.Sigma),
	}
	for _, f := range fields {
		if err := writeU64(f); err != nil {
			return fmt.Errorf("sim: save: %w", err)
		}
	}
	if _, err := w.Write(phys.EncodeSlice(cp.Particles)); err != nil {
		return fmt.Errorf("sim: save particles: %w", err)
	}
	return nil
}

// Load reads a checkpoint written by Save, validating magic, version and
// particle count. It reads version 2 as well.
func Load(r io.Reader) (*Checkpoint, error) {
	var scratch [8]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(r, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(r, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	magic, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("sim: load: %w", err)
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("sim: not a checkpoint (magic %#x)", magic)
	}
	version, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("sim: load: %w", err)
	}
	if version != 2 && version != checkpointVersion {
		return nil, fmt.Errorf("sim: unsupported checkpoint version %d", version)
	}
	var fields [17]uint64
	for i := range fields {
		if fields[i], err = readU64(); err != nil {
			return nil, fmt.Errorf("sim: load header: %w", err)
		}
	}
	switch flags := fields[13]; {
	case flags&flagOverlap != 0:
		return nil, fmt.Errorf("sim: checkpoint saved with the overlapped shift loop, which no longer exists")
	case flags&^flagLattice != 0:
		return nil, fmt.Errorf("sim: unknown checkpoint flags %#x", flags)
	}
	h := Header{
		Step: int64(fields[0]), N: int64(fields[1]), P: int64(fields[2]), C: int64(fields[3]),
		Algorithm: int64(fields[4]), Dim: int64(fields[5]), Boundary: int64(fields[6]), Seed: fields[7],
		BoxLength: math.Float64frombits(fields[8]), Cutoff: math.Float64frombits(fields[9]),
		DT: math.Float64frombits(fields[10]), ForceK: math.Float64frombits(fields[11]),
		Softening: math.Float64frombits(fields[12]), Lattice: fields[13]&flagLattice != 0,
		Potential: int64(fields[14]), Epsilon: math.Float64frombits(fields[15]),
		Sigma: math.Float64frombits(fields[16]),
	}
	if h.N < 0 || h.N > 1<<40 {
		return nil, fmt.Errorf("sim: implausible particle count %d", h.N)
	}
	// Read the particle block in bounded chunks so a forged header with
	// a huge N fails on EOF instead of attempting one giant allocation.
	total := int(h.N) * phys.WireSize
	chunkCap := 1 << 20
	if total < chunkCap {
		chunkCap = total
	}
	body := make([]byte, 0, chunkCap)
	chunk := make([]byte, chunkCap)
	for len(body) < total {
		want := total - len(body)
		if want > len(chunk) {
			want = len(chunk)
		}
		if _, err := io.ReadFull(r, chunk[:want]); err != nil {
			return nil, fmt.Errorf("sim: load particles: %w", err)
		}
		body = append(body, chunk[:want]...)
	}
	ps, err := phys.DecodeSlice(body)
	if err != nil {
		return nil, fmt.Errorf("sim: load particles: %w", err)
	}
	return &Checkpoint{Header: h, Particles: ps}, nil
}
