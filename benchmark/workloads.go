package main

import (
	"fmt"

	nbody "repro"
)

// workload is one fixed input of the benchmark: a configuration built
// from the seed and the batch of timesteps one sample times. Both are
// constants of the benchmark, identical on every commit, so every
// sample of a workload is the bitwise-identical steps 2..batch+1.
type workload struct {
	name string
	// why is the one-line reason the workload exists, as BENCHMARK.json
	// records it.
	why string
	// batch is k, the steps of the one timed Run of a round.
	batch int
	// socket runs the simulation across two procs joined over a
	// unix-socket mesh, both hosted in the benchmark process.
	socket bool
	config func(seed uint64) nbody.Config
}

// latencyConfig is shared by ap-latency and its socket twin, so that
// the difference between the two is the socket mesh and nothing else.
func latencyConfig(seed uint64) nbody.Config {
	return nbody.Config{N: 256, P: 64, C: 2, Seed: seed}
}

var workloads = []workload{
	{
		name:  "ap-compute",
		why:   "all-pairs N=4096 P=4 C=2: the force kernel does nearly all the CPU and 6 msgs/step; kernel, pool and SoA work shows here, comm work must not",
		batch: 5,
		config: func(seed uint64) nbody.Config {
			return nbody.Config{N: 4096, P: 4, C: 2, Seed: seed}
		},
	},
	{
		name:   "ap-latency",
		why:    "all-pairs N=256 P=64 C=2: 8-particle blocks, 38 critical-path msgs/step; in-process transport, collectives and goroutine wake-ups dominate, kernel work must not show",
		batch:  100,
		config: latencyConfig,
	},
	{
		name:   "ap-socket",
		why:    "ap-latency's config over a 2-proc unix-socket mesh hosted in the benchmark process: the difference to ap-latency is internal/comm/net",
		batch:  100,
		socket: true,
		config: latencyConfig,
	},
	{
		name:  "cutoff-small",
		why:   "1D periodic cutoff N=512 P=8 C=2: 64 particles/rank, so tile staging, Reassign migration and per-step allocation outweigh the cut_in kernel",
		batch: 150,
		config: func(seed uint64) nbody.Config {
			return nbody.Config{N: 512, P: 8, C: 2, Dim: 1, Boundary: nbody.Periodic,
				Cutoff: 4, Lattice: true, DT: 5e-4, Seed: seed}
		},
	},
	{
		name:  "cutoff-2d",
		why:   "2D reflective cutoff N=4096 P=64 C=4: 4x4 team grid, serpentine import region, 2D reassign; ~3000 allocs/step and the AccumulateIn compaction kernels busy",
		batch: 8,
		config: func(seed uint64) nbody.Config {
			return nbody.Config{N: 4096, P: 64, C: 4, Dim: 2, Boundary: nbody.Reflective,
				Cutoff: 4, Lattice: true, DT: 5e-4, Seed: seed}
		},
	},
}

// selectWorkloads resolves the -workload flag: "all" or one name.
func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// blockSize is b = N·C/P, the particles of one team: the targets and
// the sources of one kernel call and the payload of one message.
func blockSize(cfg nbody.Config) int { return cfg.N * cfg.C / cfg.P }
