package main

import (
	"bufio"
	"bytes"
	"math"
	"time"

	nbody "repro"
	"repro/internal/comm"
	cnet "repro/internal/comm/net"
	"repro/internal/phys"
)

// Probe sizes. Each probe times calls into one layer's public functions
// from outside, at the workload's block shape, and reports a median.
const (
	kernelCalls   = 200  // phys kernel and pool calls, at least
	commIters     = 1000 // messages or collectives per comm probe
	spinupRuns    = 200  // empty comm.Run calls
	frameIters    = 10000
	joinSamples   = 11
	ckptSamples   = 21
	serialSamples = 3
	mbpsParticles = (1 << 20) / phys.WireSize // a 1 MiB payload
	mbpsMessages  = 32
	mbpsPasses    = 5
	probeTag      = 1
)

// medianNs times fn in batches and returns the median batch's time per
// call in nanoseconds. A batch lasts about a millisecond, so the clock
// reads do not show, and the batches together make at least calls calls.
func medianNs(calls int, fn func()) float64 {
	t0 := time.Now()
	fn()
	once := time.Since(t0)
	per := 1
	if once < time.Millisecond {
		per = int(time.Millisecond/(once+1)) + 1
	}
	batches := (calls + per - 1) / per
	if batches < 20 {
		batches = 20
	}
	times := make([]float64, batches)
	for i := range times {
		t0 := time.Now()
		for j := 0; j < per; j++ {
			fn()
		}
		times[i] = float64(time.Since(t0).Nanoseconds()) / float64(per)
	}
	return median(times)
}

// probe runs every layer probe at the workload's shape. Probes whose
// set-up fails count as failed operations and leave their metrics out,
// which the report then refuses.
func (s *set) probe(res *result) {
	w := res.workload
	in, err := newInstance(w.config(s.o.seed), nil)
	if !s.ops.op(w.name+" probe New", err) {
		return
	}
	sim := in.lead()
	cfg := sim.Config()
	s.logf("# %s: layer probes\n", w.name)

	s.physProbes(res, cfg, sim.Particles())
	s.commProbes(res, cfg)
	s.netProbes(res, cfg)
	s.simProbes(res, sim)
}

func lawOf(cfg nbody.Config) phys.Law {
	return phys.Law{Kind: cfg.Potential, K: cfg.ForceK, Epsilon: cfg.Epsilon, Sigma: cfg.Sigma,
		Softening: cfg.Softening, Cutoff: cfg.Cutoff}
}

func boxOf(cfg nbody.Config) phys.Box { return phys.NewBox(cfg.BoxLength, cfg.Dim, cfg.Boundary) }

// blocks picks the targets and sources of one representative kernel
// call: the particles of two teams. Without a cutoff any two blocks of
// b particles do. With one, teams own equal cells of the box, so the
// call the loops make pairs a cell with a neighbour; the corner cell
// and the next one along x stand for it.
func blocks(cfg nbody.Config, ps []phys.Particle) (targets, sources []phys.Particle) {
	b := blockSize(cfg)
	if cfg.Cutoff == 0 {
		return append([]phys.Particle(nil), ps[:b]...), append([]phys.Particle(nil), ps[b:2*b]...)
	}
	side := cfg.P / cfg.C
	if cfg.Dim == 2 {
		side = int(math.Round(math.Sqrt(float64(side))))
	}
	width := cfg.BoxLength / float64(side)
	for _, p := range ps {
		cx, cy := int(p.Pos.X/width), 0
		if cfg.Dim == 2 {
			cy = int(p.Pos.Y / width)
		}
		switch {
		case cx == 0 && cy == 0:
			targets = append(targets, p)
		case cx == 1 && cy == 0:
			sources = append(sources, p)
		}
	}
	return targets, sources
}

// physProbes times the force kernel, the worker pool, the integrator
// and the wire codec directly, on the driver goroutine, and a plain
// single-threaded step of the whole problem as the serial baseline.
func (s *set) physProbes(res *result, cfg nbody.Config, ps []phys.Particle) {
	defer s.tr.begin("phys probes")()
	law, box := lawOf(cfg), boxOf(cfg)
	kern := law.Kernel()
	targets, sources := blocks(cfg, ps)
	if !s.ops.check(res.workload.name+" probe blocks", len(targets) > 0 && len(sources) > 0, "empty kernel block (%d targets, %d sources)", len(targets), len(sources)) {
		return
	}
	// The all-pairs loop calls Accumulate, the cutoff loop AccumulateIn
	// under the box metric; probe the one the workload runs.
	accumulate := func(pool *phys.Pool) int64 {
		if cfg.Cutoff > 0 {
			return pool.AccumulateIn(kern, targets, sources, box)
		}
		return pool.Accumulate(kern, targets, sources)
	}

	end := s.tr.begin("phys.Step")
	stepped := append([]phys.Particle(nil), targets...)
	res.metrics["phys.step_ns_per_particle"] = medianNs(kernelCalls, func() { phys.Step(stepped, box, cfg.DT) }) / float64(len(stepped))
	end()

	end = s.tr.begin("phys codec")
	var wire []byte
	var decoded []phys.Particle
	var codecErr error
	res.metrics["phys.codec_ns_per_particle"] = medianNs(kernelCalls, func() {
		wire = phys.AppendSlice(wire[:0], targets)
		decoded, codecErr = phys.DecodeSliceInto(decoded[:0], wire)
	}) / float64(len(targets))
	end()
	s.ops.op(res.workload.name+" probe codec", codecErr)

	end = s.tr.begin("Kernel.Accumulate")
	pairs := accumulate(nil)
	before := calibrate()
	inline := medianNs(kernelCalls, func() { accumulate(nil) })
	res.kernelIndex = between(before, calibrate())
	end()
	res.metrics["phys.accumulate_ns_per_pair"] = inline / float64(pairs)

	end = s.tr.begin("Pool.Accumulate")
	pool := phys.NewPool(2)
	pooled := medianNs(kernelCalls, func() { accumulate(pool) })
	pool.Close()
	end()
	res.metrics["phys.pool_speedup_w2"] = inline / pooled

	end = s.tr.begin("serial step")
	all := append([]phys.Particle(nil), ps...)
	var serial []float64
	for i := 0; i < serialSamples; i++ {
		t0 := time.Now()
		for step := 0; step < res.workload.batch; step++ {
			phys.ClearForces(all)
			if cfg.Cutoff > 0 {
				kern.AccumulateIn(all, all, box)
			} else {
				kern.Accumulate(all, all)
			}
			phys.Step(all, box, cfg.DT)
		}
		serial = append(serial, float64(time.Since(t0).Microseconds())/float64(res.workload.batch))
	}
	end()
	res.serialStepUs = median(serial)
}

// commProbes times the in-process transport's primitives inside
// comm.Run, with b-particle payloads. Each number is the time per
// operation as rank 0 saw it over commIters back-to-back operations.
func (s *set) commProbes(res *result, cfg nbody.Config) {
	defer s.tr.begin("comm probes")()
	w, b := res.workload, blockSize(cfg)
	// perOp runs body on every rank of a size-rank world between two
	// barriers and returns rank 0's time per iteration in µs.
	perOp := func(name string, size int, body func(c *comm.Comm, ps []phys.Particle) []phys.Particle) float64 {
		defer s.tr.begin(name)()
		var us float64
		_, err := comm.Run(size, comm.Options{}, func(c *comm.Comm) error {
			ps := make([]phys.Particle, b)
			c.Barrier()
			t0 := time.Now()
			for i := 0; i < commIters; i++ {
				ps = body(c, ps)
			}
			if c.Rank() == 0 {
				us = float64(time.Since(t0).Nanoseconds()) / 1e3 / commIters
			}
			return nil
		})
		s.ops.op(w.name+" probe "+name, err)
		return us
	}

	res.metrics["comm.pingpong_us"] = perOp("comm pingpong", 2, func(c *comm.Comm, ps []phys.Particle) []phys.Particle {
		peer := 1 - c.Rank()
		return c.SendrecvParticles(peer, ps, peer, probeTag)
	})
	res.metrics["comm.ring_shift_us"] = perOp("comm ring shift", cfg.P, func(c *comm.Comm, ps []phys.Particle) []phys.Particle {
		return c.SendrecvParticles((c.Rank()+1)%c.Size(), ps, (c.Rank()+c.Size()-1)%c.Size(), probeTag)
	})
	res.metrics["comm.barrier_us"] = perOp("comm barrier", cfg.P, func(c *comm.Comm, ps []phys.Particle) []phys.Particle {
		c.Barrier()
		return ps
	})

	// Broadcast and reduce alternate, as in a timestep: the reduce is
	// the synchronization that lets the root reuse its broadcast buffer,
	// and the next broadcast the one that releases the reduce buffers.
	end := s.tr.begin("comm bcast+reduce")
	var bcastUs, reduceUs float64
	_, err := comm.Run(cfg.C, comm.Options{}, func(c *comm.Comm) error {
		lead := make([]phys.Particle, b)
		var replica []phys.Particle
		forces := make([]float64, 2*b)
		var bcast, reduce time.Duration
		c.Barrier()
		for i := 0; i < commIters; i++ {
			t0 := time.Now()
			if c.Rank() == 0 {
				replica = c.BcastParticles(0, lead, replica)
			} else {
				replica = c.BcastParticles(0, nil, replica)
			}
			t1 := time.Now()
			c.ReduceF64sInPlace(0, forces)
			bcast += t1.Sub(t0)
			reduce += time.Since(t1)
		}
		if c.Rank() == 0 {
			bcastUs = float64(bcast.Nanoseconds()) / 1e3 / commIters
			reduceUs = float64(reduce.Nanoseconds()) / 1e3 / commIters
		}
		return nil
	})
	end()
	s.ops.op(w.name+" probe comm bcast+reduce", err)
	res.metrics["comm.bcast_us"], res.metrics["comm.reduce_us"] = bcastUs, reduceUs

	end = s.tr.begin("comm.Run spin-up")
	var spinErr error
	res.metrics["comm.run_spinup_us"] = medianNs(spinupRuns, func() {
		if _, err := comm.Run(cfg.P, comm.Options{}, func(*comm.Comm) error { return nil }); err != nil {
			spinErr = err
		}
	}) / 1e3
	end()
	s.ops.op(w.name+" probe comm.Run spin-up", spinErr)
}

// netProbes times the socket mesh: formation, a two-proc ping-pong over
// unix and TCP loopback sockets, one-way bandwidth and the frame codec.
func (s *set) netProbes(res *result, cfg nbody.Config) {
	defer s.tr.begin("comm.net probes")()
	w, b := res.workload, blockSize(cfg)

	end := s.tr.begin("JoinProcs")
	var joins []float64
	for i := 0; i < joinSamples; i++ {
		t0 := time.Now()
		m, err := joinMesh(s.socks.next(), ranksPerProc(cfg))
		if s.ops.op(w.name+" probe join", err) {
			joins = append(joins, float64(time.Since(t0).Nanoseconds())/1e6)
			m.close()
		}
	}
	end()
	if len(joins) > 0 {
		res.metrics["comm.net.join_ms"] = median(joins)
	}

	// pingpong runs a 2-proc × 1-rank world over the mesh at addr and
	// returns the round-trip time in µs and the one-way rate in MB/s.
	pingpong := func(name, addr string) (rttUs, mbps float64, err error) {
		defer s.tr.begin(name)()
		m, err := joinMesh(addr, 1)
		if err != nil {
			return 0, 0, err
		}
		defer m.close()
		err = forProcs(2, func(i int) error {
			_, _, err := comm.RunProc(2, comm.Options{}, m.procs[i], func(c *comm.Comm) error {
				ps := make([]phys.Particle, b)
				big := make([]phys.Particle, mbpsParticles)
				ack := make([]phys.Particle, 1)
				if c.Rank() == 1 {
					for i := 0; i < commIters; i++ {
						c.SendParticles(0, probeTag, c.RecvParticles(0, probeTag))
					}
					for pass := 0; pass < mbpsPasses; pass++ {
						for i := 0; i < mbpsMessages; i++ {
							c.RecvParticles(0, probeTag)
						}
						c.SendParticles(0, probeTag, ack)
					}
					return nil
				}
				t0 := time.Now()
				for i := 0; i < commIters; i++ {
					c.SendParticles(1, probeTag, ps)
					ps = c.RecvParticles(1, probeTag)
				}
				rttUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / commIters
				var rates []float64
				for pass := 0; pass < mbpsPasses; pass++ {
					t0 := time.Now()
					for i := 0; i < mbpsMessages; i++ {
						c.SendParticles(1, probeTag, big)
					}
					c.RecvParticles(1, probeTag)
					rates = append(rates, float64(mbpsMessages*phys.WireBytes(mbpsParticles))/1e6/time.Since(t0).Seconds())
				}
				mbps = median(rates)
				return nil
			})
			return err
		})
		return rttUs, mbps, err
	}
	rtt, mbps, err := pingpong("comm.net unix pingpong", s.socks.next())
	if s.ops.op(w.name+" probe unix pingpong", err) {
		res.metrics["comm.net.rtt_us"], res.metrics["comm.net.mbps"] = rtt, mbps
	}
	// A sandbox may have no loopback interface; that is the host's
	// property, not a failure of the program, and reads as -1.
	res.metrics["comm.net.rtt_tcp_us"] = -1
	if rtt, _, err := pingpong("comm.net tcp pingpong", "127.0.0.1:0"); err == nil {
		res.metrics["comm.net.rtt_tcp_us"] = rtt
	} else {
		s.logf("# %s: TCP loopback unavailable, comm.net.rtt_tcp_us = -1: %v\n", w.name, err)
	}

	end = s.tr.begin("frame codec")
	frame := cnet.Frame{Kind: cnet.KindParticles, Src: 0, Dst: 1, Tag: probeTag, Payload: phys.EncodeSlice(make([]phys.Particle, b))}
	var wire []byte
	var rd bytes.Reader
	br := bufio.NewReader(&rd)
	var frameErr error
	res.metrics["comm.net.frame_ns"] = medianNs(frameIters, func() {
		wire, frameErr = cnet.AppendFrame(wire[:0], &frame)
		rd.Reset(wire)
		br.Reset(&rd)
		if _, err := cnet.ReadFrame(br); err != nil {
			frameErr = err
		}
	})
	end()
	s.ops.op(w.name+" probe frame codec", frameErr)
}

// simProbes times a checkpoint of the workload's state after one step.
func (s *set) simProbes(res *result, sim *nbody.Simulation) {
	defer s.tr.begin("sim probes")()
	w := res.workload
	if !s.ops.op(w.name+" probe Run(1)", sim.Run(1)) {
		return
	}
	var buf bytes.Buffer
	var saves, loads []float64
	for i := 0; i < ckptSamples; i++ {
		buf.Reset()
		end := s.tr.begin("Save")
		t0 := time.Now()
		err := sim.Save(&buf)
		saves = append(saves, float64(time.Since(t0).Nanoseconds())/1e3)
		end()
		if !s.ops.op(w.name+" probe Save", err) {
			return
		}
		end = s.tr.begin("Load")
		t0 = time.Now()
		loaded, err := nbody.Load(bytes.NewReader(buf.Bytes()))
		loads = append(loads, float64(time.Since(t0).Nanoseconds())/1e3)
		end()
		if !s.ops.op(w.name+" probe Load", err) {
			return
		}
		if i == 0 {
			got, want := checksum(loaded.Particles()), checksum(sim.Particles())
			s.ops.check(w.name+" probe checkpoint round trip", got == want, "loaded state %016x, saved %016x", got, want)
		}
	}
	res.metrics["sim.save_us"], res.metrics["sim.load_us"] = median(saves), median(loads)
	res.metrics["sim.checkpoint_bytes"] = float64(buf.Len())
}
