// Package netsim is a discrete-event simulator of a 3D-torus
// interconnect with dimension-ordered routing, per-link FIFO contention
// and store-and-forward message transfer. It replays the timestep the
// communication-avoiding all-pairs algorithm runs — internal/core's Plan:
// skew, shift rounds, the force allreduce — message by message against a
// machine description, producing a makespan and per-phase breakdown that
// cross-validate the closed-form analytic model in internal/model: the
// model prices messages independently, the simulator exposes the
// contention the closed form ignores.
package netsim

import (
	"repro/internal/machine"
	"repro/internal/topo"
)

// Network tracks link occupancy on a torus partition.
type Network struct {
	mach machine.Machine
	tor  topo.Torus
	// linkFree[l] is the time at which directed link l finishes its
	// current transfer.
	linkFree map[topo.Link]float64
	// Messages counts the transfers the network has carried.
	Messages int64
}

// NewNetwork returns an idle network for p ranks on mach's torus.
func NewNetwork(mach machine.Machine, p int) *Network {
	return &Network{
		mach:     mach,
		tor:      mach.TorusFor(p),
		linkFree: make(map[topo.Link]float64),
	}
}

// Transfer delivers bytes from src to dst, with the payload entering the
// network at time depart, and returns the arrival time. Routing is
// cut-through: the message header advances one HopLatency per link while
// the payload pipelines behind it, so an uncontended transfer costs
// α + hops·HopLatency + bytes·β regardless of path length. Each directed
// link is still occupied for a full serialization time, so messages
// sharing a link contend FIFO — the effect the closed-form model
// ignores. Same-node transfers use the shared-memory cost.
func (n *Network) Transfer(depart float64, src, dst, bytes int) float64 {
	n.Messages++
	route := n.tor.Route(src, dst)
	if len(route) == 0 {
		return depart + n.mach.AlphaLocal + float64(bytes)*n.mach.BetaLocal
	}
	t := depart + n.mach.Alpha
	ser := float64(bytes) * n.mach.Beta
	for _, l := range route {
		start := t
		if free, ok := n.linkFree[l]; ok && free > start {
			start = free
		}
		n.linkFree[l] = start + ser
		t = start + n.mach.HopLatency
	}
	return t + ser
}

// Sim couples the network with per-rank virtual clocks and per-phase
// accounting, executing SPMD schedules deterministically.
type Sim struct {
	net    *Network
	clock  []float64
	phase  map[string]float64
	marker []float64
}

// NewSim returns a simulator for p ranks.
func NewSim(mach machine.Machine, p int) *Sim {
	return &Sim{
		net:    NewNetwork(mach, p),
		clock:  make([]float64, p),
		phase:  make(map[string]float64),
		marker: make([]float64, p),
	}
}

// Compute advances rank's clock by seconds of local work.
func (s *Sim) Compute(rank int, seconds float64) { s.clock[rank] += seconds }

// Message is one point-to-point transfer of a round.
type Message struct {
	Src, Dst, Bytes int
}

// Round executes a set of messages that all ranks post simultaneously
// (the bulk-synchronous shift pattern): each source is charged send
// overhead, each destination waits for its arrival. Messages within the
// round contend on links in the order given.
func (s *Sim) Round(msgs []Message) {
	arrivals := make([]struct {
		dst int
		at  float64
	}, 0, len(msgs))
	oh := s.net.mach.ShiftOverhead
	for _, m := range msgs {
		depart := s.clock[m.Src] + oh
		at := s.net.Transfer(depart, m.Src, m.Dst, m.Bytes)
		s.clock[m.Src] = depart
		arrivals = append(arrivals, struct {
			dst int
			at  float64
		}{m.Dst, at + oh})
	}
	for _, a := range arrivals {
		if a.at > s.clock[a.dst] {
			s.clock[a.dst] = a.at
		}
	}
}

// Mark opens a phase window; ClosePhase charges the per-rank clock
// advance since the matching Mark to the named phase (taking the maximum
// across ranks, i.e. the critical path of the phase).
func (s *Sim) Mark() { copy(s.marker, s.clock) }

// ClosePhase records the elapsed critical-path time since Mark under
// name.
func (s *Sim) ClosePhase(name string) {
	var worst float64
	for r := range s.clock {
		if d := s.clock[r] - s.marker[r]; d > worst {
			worst = d
		}
	}
	s.phase[name] += worst
}

// Phase returns the accumulated critical-path time of a phase.
func (s *Sim) Phase(name string) float64 { return s.phase[name] }
