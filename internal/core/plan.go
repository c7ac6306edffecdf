package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/phys"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Plan is one timestep as a session's ranks execute it: each world
// rank's messages and visits in the order its step issues them.
// Session.Plan records it by driving every rank's real step on a
// transport that moves nothing and takes notes, so it describes the
// step that runs, not a second account of it: netsim replays it, and
// `nbody validate` and the accounting tests hold measured runs to it.
type Plan struct {
	// Teams lists each team's world ranks, leader first: the groups the
	// step's force allreduce runs over. The lists are the session's own;
	// read them only.
	Teams [][]int
	// Ranks holds each world rank's operations, by world rank.
	Ranks [][]Op
}

// OpKind is what one operation of a step does.
type OpKind uint8

const (
	OpSend     OpKind = iota // a message to To
	OpRecv                   // a message from From
	OpSendrecv               // a move, an allreduce or a reassignment exchange: to To and from From at once
	OpVisit                  // the walk hands the pairing the block it holds
)

// Unpredicted is the byte count of a reassignment message: its payload
// is the particles that left a team, which only the motion decides.
const Unpredicted = -1

// Op is one operation of a rank's step.
type Op struct {
	Kind  OpKind
	Phase trace.Phase
	// To and From are the world ranks a message goes to and comes from,
	// -1 where the kind has none; Tag is the tag it travels under.
	To, From, Tag int
	// Bytes and RecvBytes are the wire bytes sent and received, as comm
	// charges them, or Unpredicted.
	Bytes, RecvBytes int
	// At and Src are a visit's ring position and the team whose block
	// the rank holds there.
	At, Src int
}

// Table returns rank r's messages and bytes per phase, sent and
// received, as a run charges them to the rank's trace.Stats.
// Unpredicted bytes count as none.
func (p *Plan) Table(r int) trace.PhaseTable {
	var t trace.PhaseTable
	for _, op := range p.Ranks[r] {
		ps := &t[op.Phase]
		if op.To >= 0 {
			ps.Messages++
			ps.Bytes += int64(max(op.Bytes, 0))
		}
		if op.From >= 0 {
			ps.RecvMessages++
			ps.RecvBytes += int64(max(op.RecvBytes, 0))
		}
	}
	return t
}

// Report folds the ranks' Tables as trace.Aggregate folds a run's
// Stats: per phase, the sum and the maximum over ranks.
func (p *Plan) Report() *trace.Report {
	ranks := make([]*trace.Stats, len(p.Ranks))
	for r := range ranks {
		ranks[r] = &trace.Stats{ByPhase: p.Table(r)}
	}
	return trace.Aggregate(ranks)
}

// Plan evaluates the session's next timestep without running it: every
// rank's loop, built afresh with its team sized as it stands now (so
// cutoff teams of unequal size come out exact), steps on a recorder
// that computes nothing. It starts no goroutine, builds no comm world
// and leaves the session as it was; it must not run during an Advance.
// A session spanning processes holds only its own ranks' teams, so it
// is evaluated before its first Advance.
func (s *Session) Plan() (*Plan, error) {
	if s.pr.Proc != nil && s.rt != nil {
		return nil, fmt.Errorf("core: a session spanning processes is evaluated before its first Advance")
	}
	occ := make([]int, len(s.cg.teams)) // each team's particles
	loops := make([]*shiftLoop, s.pr.P)
	for r := range loops {
		row, col := s.cg.Coord(r)
		x := &recorder{st: trace.NewStats(), vr: row, slot: col, ring: s.cg.rows[row], team: s.cg.teams[col], occ: occ}
		l := s.build(&rank{st: x.st, rec: x})
		if cur := s.loops[r]; cur != nil {
			l.mine = cur.mine
		}
		if l.leader {
			occ[l.slot] = len(l.mine)
		}
		l.mine = make([]phys.Particle, len(l.mine)) // a scratch to integrate
		x.real, l.pairing = l.pairing, x
		loops[r] = l
	}
	pl := &Plan{Teams: s.cg.teams, Ranks: make([][]Op, len(loops))}
	for r, l := range loops {
		if err := l.step(); err != nil {
			return nil, err
		}
		pl.Ranks[r] = l.rec.ops
	}
	wire := comm.ParticlesWire
	if loops[0].rec.framed {
		wire = comm.TeamParticlesWire
	}
	if err := pl.resolve(s.cg, occ, wire); err != nil {
		return nil, err
	}
	return pl, nil
}

// move says the operation is a move of the exchange buffer: an exchange
// of the skew or the shift, not one of the allreduce or the
// reassignment.
func (o *Op) move() bool {
	return o.Kind == OpSendrecv && (o.Phase == trace.Skew || o.Phase == trace.Shift)
}

// resolve prices the moves and names the visited blocks, which a rank's
// own notes cannot: the block a rank holds came to it along its ring.
// Every rank of a ring starts on its own team's block and moves in lock
// step with the others, its k-th move adopting what the rank it
// receives from held before that move.
func (p *Plan) resolve(cg *commGrid, occ []int, wire func(int) int) error {
	for _, ring := range cg.rows {
		held := make([]int, len(ring)) // the team whose block each holds
		for k := range held {
			held[k] = k
		}
		next := make([]int, len(ring))
		at := make([]int, len(ring)) // each rank's next op
		for {
			moving := 0
			for k, r := range ring {
				ops := p.Ranks[r]
				for ; at[k] < len(ops) && !ops[at[k]].move(); at[k]++ {
					if ops[at[k]].Kind == OpVisit {
						ops[at[k]].Src = held[k]
					}
				}
				if at[k] < len(ops) {
					moving++
				}
			}
			if moving == 0 {
				break
			}
			if moving < len(ring) {
				return fmt.Errorf("core: the ranks of ring %v move out of step", ring)
			}
			for k, r := range ring {
				op := &p.Ranks[r][at[k]]
				_, from := cg.Coord(op.From)
				if ring[from] != op.From {
					return fmt.Errorf("core: rank %d takes a move from rank %d, outside its ring", r, op.From)
				}
				next[k] = held[from]
				op.Bytes, op.RecvBytes = wire(occ[held[k]]), wire(occ[held[from]])
				at[k]++
			}
			held, next = next, held
		}
	}
	return nil
}

// recorder stands in for the transport and the pairing of an evaluated
// step (Session.Plan): it moves and computes nothing, and notes each
// message the rank's step would send or receive, under the phase the
// step has set and priced by comm's wire sizes, and each block the walk
// hands the pairing. The team's allreduce expands as comm runs it:
// recursive doubling on a power-of-two team, else topo's binomial tree,
// in comm's order. A move ships the block the rank holds by then,
// which came along its ring: resolve prices the moves once every rank
// has stepped. The real pairing integrates no particles, so that a
// reassignment sends its messages empty.
type recorder struct {
	st         *trace.Stats
	vr, slot   int   // index in team (the row) and in ring (the team)
	ring, team []int // world ranks of the rank's row and team
	occ        []int // each team's particles
	framed     bool  // the exchange buffer carries a source-team frame
	real       pairing
	ops        []Op
	forces     []float64
}

func (x *recorder) note(kind OpKind, to, from, tag, bytes, recv int) {
	x.ops = append(x.ops, Op{Kind: kind, Phase: x.st.Phase(), To: to, From: from, Tag: tag, Bytes: bytes, RecvBytes: recv, At: -1, Src: -1})
}

// tree notes the rank's messages of a tree collective of b-byte
// payloads rooted at the leader, as comm walks the tree: a broadcast
// receives from the parent, then sends to the children, largest subtree
// first; a reduction receives from the children, nearest first, then
// sends to the parent.
func (x *recorder) tree(tag, b int) {
	kids, parent := topo.BinomialChildren(x.vr, len(x.team)), -1
	if x.vr != 0 {
		parent = x.team[topo.BinomialParent(x.vr)]
	}
	if tag == comm.TagBcast {
		if parent >= 0 {
			x.note(OpRecv, -1, parent, tag, 0, b)
		}
		for k := kids - 1; k >= 0; k-- {
			x.note(OpSend, x.team[x.vr+1<<k], -1, tag, b, 0)
		}
		return
	}
	for k := 0; k < kids; k++ {
		x.note(OpRecv, -1, x.team[x.vr+1<<k], tag, 0, b)
	}
	if parent >= 0 {
		x.note(OpSend, parent, -1, tag, b, 0)
	}
}

func (x *recorder) loadExchange([]phys.Particle) {}

func (x *recorder) view() (int, []phys.Particle) { return -1, nil }

func (x *recorder) shift(_ *comm.Comm, to, from, tag int) {
	x.note(OpSendrecv, x.ring[to], x.ring[from], tag, 0, 0)
}

func (x *recorder) allreduceForces(_ *comm.Comm, team []phys.Particle) []float64 {
	x.forces = flattenForcesInto(x.forces[:0], team)
	b := comm.F64sWire(len(x.forces))
	if n := len(x.team); n&(n-1) != 0 {
		x.tree(comm.TagReduce, b)
		x.tree(comm.TagBcast, b)
		return x.forces
	}
	for j := 1; j < len(x.team); j <<= 1 {
		partner := x.team[x.vr^j]
		x.note(OpSendrecv, partner, partner, comm.TagReduce, b, b)
	}
	return x.forces
}

func (x *recorder) sendParticles(_ *comm.Comm, to, tag int, _ []phys.Particle) {
	x.note(OpSend, x.ring[to], -1, tag, Unpredicted, 0)
}

func (x *recorder) recvParticles(_ *comm.Comm, from, tag int) []phys.Particle {
	x.note(OpRecv, -1, x.ring[from], tag, 0, Unpredicted)
	return nil
}

func (x *recorder) sendrecvParticles(_ *comm.Comm, to int, _ []phys.Particle, from, tag int) []phys.Particle {
	x.note(OpSendrecv, x.ring[to], x.ring[from], tag, Unpredicted, Unpredicted)
	return nil
}

func (x *recorder) update(_ *shiftLoop, at int) {
	x.ops = append(x.ops, Op{Kind: OpVisit, Phase: trace.Compute, To: -1, From: -1, At: at, Src: -1})
}

func (*recorder) flush(*shiftLoop) {}

func (x *recorder) integrated(l *shiftLoop, _ []phys.Particle) ([]phys.Particle, error) {
	return x.real.integrated(l, nil)
}
