//go:build !amd64 || purego

package phys

// This build has no vector sweeps (see sweep_amd64.go): the Go loops are
// the only path, and the constant lets the compiler drop the dispatch.
const useAVX2, usePipe = false, false

func (k *Kernel) sweepRepOpenBlocks(targets []Particle, blocks [][]Particle) int64 {
	var n int64
	for _, sources := range blocks {
		n += k.accumulateRepOpen(targets, sources)
	}
	return n
}

func (k *Kernel) sweepInRepCut(targets, sources []Particle, box Box) int64 {
	return k.accumulateCut(targets, sources, box)
}

// The symmetric sweeps are never reached without usePipe; they are the
// sweeps AccumulateSelf stands for.
func (k *Kernel) sweepRepOpenSelf(ps []Particle) int64 {
	return k.accumulateRepOpen(ps, ps)
}

func (k *Kernel) sweepRepCutSelf(ps []Particle, box Box) int64 {
	return k.accumulateCut(ps, ps, box)
}
