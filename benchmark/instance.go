package main

import (
	"fmt"
	"hash/fnv"
	"path/filepath"

	nbody "repro"
	"repro/internal/phys"
	"repro/internal/trace"
)

// forProcs runs fn once per hosted proc and returns the first error.
// Proc 0 runs on the calling (driver) goroutine; a second proc runs on
// one follower goroutine that has ended when forProcs returns, so the
// benchmark never drives load from more goroutines than it hosts procs.
func forProcs(n int, fn func(proc int) error) error {
	if n == 1 {
		return fn(0)
	}
	follower := make(chan error, 1)
	go func() { follower <- fn(1) }()
	err := fn(0)
	if ferr := <-follower; err == nil {
		err = ferr
	}
	return err
}

// mesh is the two "OS processes" of a socket workload, both hosted in
// the benchmark process and joined over internal/comm/net.
type mesh struct {
	procs [2]*nbody.ProcGroup
}

// joinMesh forms a two-proc mesh at addr ("unix:<path>" or a TCP
// "host:port", port 0 allowed): proc 0 binds and accepts, proc 1 joins.
func joinMesh(addr string, ranksPerProc int) (*mesh, error) {
	l, err := nbody.ListenProcs(addr, 2, ranksPerProc)
	if err != nil {
		return nil, err
	}
	m := &mesh{}
	err = forProcs(2, func(i int) (err error) {
		if i == 0 {
			m.procs[0], err = l.Accept()
		} else {
			m.procs[1], err = nbody.JoinProcs(l.Addr(), 2, ranksPerProc)
		}
		return err
	})
	if err != nil {
		m.close()
		return nil, fmt.Errorf("join mesh at %s: %w", addr, err)
	}
	return m, nil
}

func (m *mesh) close() {
	if m == nil {
		return
	}
	for _, p := range m.procs {
		if p != nil {
			p.Close() // nothing is in flight between runs; an orderly close cannot lose data
		}
	}
}

// sockets hands out fresh unix rendezvous addresses under one scratch
// directory. The paths stay relative and short: a unix socket path is
// capped near 108 bytes and a checkout may sit deep in the filesystem.
type sockets struct {
	dir string
	seq int
}

func (s *sockets) next() string {
	s.seq++
	return "unix:" + filepath.Join(s.dir, fmt.Sprintf("m%d", s.seq))
}

// instance is one simulation as the benchmark drives it: a single
// nbody.Simulation, or on a mesh one per hosted proc, constructed and
// advanced collectively.
type instance struct {
	sims []*nbody.Simulation
}

// newInstance is nbody.New on every hosted proc. Observation, when
// asked for, is enabled on each proc's simulation.
func newInstance(cfg nbody.Config, m *mesh) (*instance, error) {
	n := 1
	if m != nil {
		n = len(m.procs)
	}
	in := &instance{sims: make([]*nbody.Simulation, n)}
	err := forProcs(n, func(i int) (err error) {
		c := cfg
		if m != nil {
			c.Proc = m.procs[i]
		}
		in.sims[i], err = nbody.New(c)
		return err
	})
	if err != nil {
		return nil, err
	}
	return in, nil
}

func (in *instance) run(steps int) error {
	return forProcs(len(in.sims), func(i int) error { return in.sims[i].Run(steps) })
}

// lead is the simulation of proc 0, whose report and state stand for
// the run once agree has shown every proc holds the same.
func (in *instance) lead() *nbody.Simulation { return in.sims[0] }

// checksum is FNV-64a over the wire encoding — the exact bits — of a
// particle set.
func checksum(ps []nbody.Particle) uint64 {
	h := fnv.New64a()
	h.Write(phys.AppendSlice(nil, ps))
	return h.Sum64()
}

var commPhases = trace.CommPhases()

const numCommPhases = 5

// counts are the exact communication quantities of one run: per phase
// the all-rank message and byte totals, plus the critical-path S and W.
type counts struct {
	S, W   int64
	Phases [numCommPhases][2]int64 // [phase]{msgs, bytes}, all-rank totals
}

func countsOf(s *nbody.Simulation) counts {
	rep := s.Report()
	c := counts{S: rep.S(), W: rep.W()}
	for i, ph := range commPhases {
		c.Phases[i] = [2]int64{rep.Sum[ph].Messages, rep.Sum[ph].Bytes}
	}
	return c
}

// agree checks the transport-invariance contract inside one instance:
// every proc of a mesh gathered the same state and the same counts.
func (in *instance) agree() error {
	sum, cnt := checksum(in.lead().Particles()), countsOf(in.lead())
	for i, s := range in.sims[1:] {
		if got := checksum(s.Particles()); got != sum {
			return fmt.Errorf("proc %d state checksum %016x, proc 0 has %016x", i+1, got, sum)
		}
		if got := countsOf(s); got != cnt {
			return fmt.Errorf("proc %d counts %+v, proc 0 has %+v", i+1, got, cnt)
		}
	}
	return nil
}
