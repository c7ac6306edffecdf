package core

import (
	"fmt"

	"repro/internal/phys"
	"repro/internal/topo"
	"repro/internal/trace"
)

// AllPairs runs the communication-avoiding all-pairs interaction
// algorithm (Algorithm 1 of the paper) for pr.Steps timesteps on pr.P
// goroutine ranks with replication factor pr.C, starting from the
// particle set ps. It returns the final particles sorted by ID and the
// aggregated communication report.
//
// Requirements: c² must divide p (so the shift loop runs an integral
// p/c² steps) and the number of teams p/c must divide n (so teams own
// equal subsets, the paper's load-balance assumption).
func AllPairs(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
	n := len(ps)
	if err := pr.validateCommon(n); err != nil {
		return nil, nil, err
	}
	if pr.P%(pr.C*pr.C) != 0 {
		return nil, nil, fmt.Errorf("core: all-pairs needs c² | p, got p=%d c=%d", pr.P, pr.C)
	}
	T := pr.Teams()
	if n%T != 0 {
		return nil, nil, fmt.Errorf("core: all-pairs needs teams | n, got n=%d teams=%d", n, T)
	}
	cg, err := newCommGrid(pr.P, pr.C)
	if err != nil {
		return nil, nil, err
	}
	npt := n / T // particles per team
	perS, perW := directBounds(n, pr)

	return runRanks(n, pr, perS, perW, func(rk *rank) rankLoop {
		l, row, col := newShiftLoop(rk, &pr, cg)
		l.moves = allPairsMoves(T, pr.C, row, col)
		l.pairing = everyBlock{}
		l.x = newXfer(pr, -1, l.closed)
		if l.leader {
			// The leader starts with the authoritative copy of the team's
			// particles (contiguous block of the ID-ordered input).
			l.mine = append([]phys.Particle(nil), ps[col*npt:(col+1)*npt]...)
		}
		return rankLoop{l.step, l.holds}
	})
}

// allPairsMoves is Algorithm 1's move list for the rank at (row, col)
// of the c × T grid. Ring neighbours are constants of the run: row k
// skews east by k, then every row shifts east by c, p/c² times. The
// ring closes — (p/c²)·c = T — so the offsets a rank visits cover the
// residue class of its row whichever position a walk starts from.
func allPairsMoves(T, c, row, col int) moves {
	return moves{
		closed: true,
		last:   T / c,
		skew:   hop{topo.Mod(col+row, T), topo.Mod(col-row, T)},
		shift:  hop{topo.Mod(col+c, T), topo.Mod(col-c, T)},
	}
}

// everyBlock is Algorithm 1's pairing: every visiting block interacts
// with the replica, and nothing follows the integration.
type everyBlock struct{}

func (everyBlock) update(l *shiftLoop) {
	_, visiting := l.x.view()
	l.st.SetPhase(trace.Compute)
	l.counted(l.pool.Accumulate(l.kern, l.replica, visiting))
}

func (everyBlock) integrated(_ *shiftLoop, mine []phys.Particle) ([]phys.Particle, error) {
	return mine, nil
}
