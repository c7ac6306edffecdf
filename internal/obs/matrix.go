package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// CommMatrix accumulates per-(phase, src, dst) traffic: how many
// messages and payload bytes each world rank sent to each other rank,
// under the sender's (for sends) or receiver's (for receives) active
// phase. Next to the cells it keeps each rank's own totals per phase:
// its sends, its receives and the time the driver charged it (AddTime).
// Traffic arrives only in batches of cells (AddCells): each rank counts
// its messages in a tally of its own and publishes it at its step's end
// and when its run returns, so the matrix lags a rank by at most a step.
// The storage is fixed blocks of atomics, so the live hub and rank 0
// read it mid-run without coordinating with the ranks.
//
// The matrix is additional instrumentation: trace.Stats stays the S/W
// accounting, and the conservation tests pin the matrix totals to it
// bitwise. The per-rank totals are what an observed run's live S, W and
// compute imbalance are computed from (trace.Measure), since
// trace.Stats belongs to its rank.
type CommMatrix struct {
	phases, ranks int
	cells         []matrixCell // [phase][src][dst], flattened
	rows          []matrixRow  // [rank][phase]: the rank's totals
}

// matrixRow is one rank's totals under one phase: its sends and
// receives, and the time charged to it.
type matrixRow struct {
	matrixCell
	ns atomic.Int64
}

// matrixCell holds one (phase, src, dst) entry. Send counts are the
// sender's under its phase, recv counts the receiver's under its phase —
// the two sides of one message may land in different phases (a send
// posted in Shift consumed by a rank still labelled Skew), which is why
// both directions are kept.
type matrixCell struct {
	sentMsgs  atomic.Int64
	sentBytes atomic.Int64
	recvMsgs  atomic.Int64
	recvBytes atomic.Int64
}

// NewCommMatrix returns a matrix for the given phase and rank counts.
func NewCommMatrix(phases, ranks int) *CommMatrix {
	if phases < 1 {
		phases = 1
	}
	if ranks < 1 {
		ranks = 1
	}
	return &CommMatrix{
		phases: phases,
		ranks:  ranks,
		cells:  make([]matrixCell, phases*ranks*ranks),
		rows:   make([]matrixRow, ranks*phases),
	}
}

// Ranks returns the rank dimension (0 on nil).
func (m *CommMatrix) Ranks() int {
	if m == nil {
		return 0
	}
	return m.ranks
}

// Phases returns the phase dimension (0 on nil).
func (m *CommMatrix) Phases() int {
	if m == nil {
		return 0
	}
	return m.phases
}

// cell returns the addressed cell, or nil when m is nil or any index is
// out of range (out-of-range traffic is dropped rather than panicking:
// the matrix is observability, not accounting).
func (m *CommMatrix) cell(phase, src, dst int) *matrixCell {
	if m == nil || phase < 0 || phase >= m.phases ||
		src < 0 || src >= m.ranks || dst < 0 || dst >= m.ranks {
		return nil
	}
	return &m.cells[(phase*m.ranks+src)*m.ranks+dst]
}

// row returns rank's totals under phase; the indices are in range.
func (m *CommMatrix) row(rank, phase int) *matrixRow {
	return &m.rows[rank*m.phases+phase]
}

// RankTotals returns one rank's cumulative traffic under one phase: the
// messages and bytes it sent and those it received. Zeros when m is nil
// or an index is out of range.
func (m *CommMatrix) RankTotals(rank, phase int) (sentMsgs, sentBytes, recvMsgs, recvBytes int64) {
	if m == nil || phase < 0 || phase >= m.phases || rank < 0 || rank >= m.ranks {
		return 0, 0, 0, 0
	}
	t := m.row(rank, phase)
	return t.sentMsgs.Load(), t.sentBytes.Load(), t.recvMsgs.Load(), t.recvBytes.Load()
}

// AddTime charges d of wall time to rank under phase. Nil-safe, and
// out-of-range indices are dropped, as cell drops them; one atomic add.
func (m *CommMatrix) AddTime(rank, phase int, d time.Duration) {
	if m == nil || phase < 0 || phase >= m.phases || rank < 0 || rank >= m.ranks {
		return
	}
	m.row(rank, phase).ns.Add(int64(d))
}

// RankTime returns the time charged to rank under phase (AddTime). Zero
// when m is nil or an index is out of range.
func (m *CommMatrix) RankTime(rank, phase int) time.Duration {
	if m == nil || phase < 0 || phase >= m.phases || rank < 0 || rank >= m.ranks {
		return 0
	}
	return time.Duration(m.row(rank, phase).ns.Load())
}

// MatrixSnapshot is a frozen, JSON-marshalable view of a CommMatrix:
// one entry per phase with any traffic, each holding p×p counts.
type MatrixSnapshot struct {
	Ranks  int                   `json:"ranks"`
	Phases []MatrixPhaseSnapshot `json:"phases"`
}

// MatrixPhaseSnapshot is one phase's p×p traffic: outer index src,
// inner index dst.
type MatrixPhaseSnapshot struct {
	Phase     int       `json:"phase"`
	Name      string    `json:"name,omitempty"`
	SentMsgs  [][]int64 `json:"sent_msgs"`
	SentBytes [][]int64 `json:"sent_bytes"`
	RecvMsgs  [][]int64 `json:"recv_msgs"`
	RecvBytes [][]int64 `json:"recv_bytes"`
}

// Snapshot freezes the matrix. nameOf, when non-nil, supplies phase
// display names (e.g. Timeline.PhaseName). Phases with no recorded
// traffic are omitted. Concurrent counting may be partially visible;
// each cell is internally consistent enough for reporting.
func (m *CommMatrix) Snapshot(nameOf func(int) string) MatrixSnapshot {
	if m == nil {
		return MatrixSnapshot{}
	}
	out := MatrixSnapshot{Ranks: m.ranks}
	for ph := 0; ph < m.phases; ph++ {
		ps := MatrixPhaseSnapshot{
			Phase:     ph,
			SentMsgs:  make([][]int64, m.ranks),
			SentBytes: make([][]int64, m.ranks),
			RecvMsgs:  make([][]int64, m.ranks),
			RecvBytes: make([][]int64, m.ranks),
		}
		var any int64
		for src := 0; src < m.ranks; src++ {
			ps.SentMsgs[src] = make([]int64, m.ranks)
			ps.SentBytes[src] = make([]int64, m.ranks)
			ps.RecvMsgs[src] = make([]int64, m.ranks)
			ps.RecvBytes[src] = make([]int64, m.ranks)
			for dst := 0; dst < m.ranks; dst++ {
				c := m.cell(ph, src, dst)
				ps.SentMsgs[src][dst] = c.sentMsgs.Load()
				ps.SentBytes[src][dst] = c.sentBytes.Load()
				ps.RecvMsgs[src][dst] = c.recvMsgs.Load()
				ps.RecvBytes[src][dst] = c.recvBytes.Load()
				any += ps.SentMsgs[src][dst] + ps.RecvMsgs[src][dst]
			}
		}
		if any == 0 {
			continue
		}
		if nameOf != nil {
			ps.Name = nameOf(ph)
		}
		out.Phases = append(out.Phases, ps)
	}
	return out
}

// MatrixCell is one (phase, src, dst) entry of the matrix by value: the
// unit in which a rank tallies its traffic and in which the end-of-run
// summary of a multi-process run carries it.
type MatrixCell struct {
	Phase, Src, Dst     int
	SentMsgs, SentBytes int64
	RecvMsgs, RecvBytes int64
}

// AddCells adds counted traffic to the matrix, to each cell and to its
// sender's and receiver's totals. Each send is counted once (by its
// sender) and each receive once (by its receiver), so adding every
// rank's counts gives the run's matrix, whichever process counted them.
// Cells outside the matrix's dimensions are dropped (the summary
// decoder has rejected them before they get here). Nil-safe.
func (m *CommMatrix) AddCells(cells []MatrixCell) {
	for _, in := range cells {
		c := m.cell(in.Phase, in.Src, in.Dst)
		if c == nil {
			continue
		}
		src, dst := m.row(in.Src, in.Phase), m.row(in.Dst, in.Phase)
		c.sentMsgs.Add(in.SentMsgs)
		src.sentMsgs.Add(in.SentMsgs)
		c.sentBytes.Add(in.SentBytes)
		src.sentBytes.Add(in.SentBytes)
		c.recvMsgs.Add(in.RecvMsgs)
		dst.recvMsgs.Add(in.RecvMsgs)
		c.recvBytes.Add(in.RecvBytes)
		dst.recvBytes.Add(in.RecvBytes)
	}
}

// Table renders the snapshot as per-phase heatmap-style tables: one
// src×dst grid of "msgs/bytes" cells per phase with traffic (send side;
// the recv side mirrors it shifted by any phase-label skew between the
// endpoints). Meant for modest rank counts — each table is p+1 columns
// wide.
func (s MatrixSnapshot) Table() string {
	var b strings.Builder
	if len(s.Phases) == 0 {
		return "communication matrix: no traffic recorded\n"
	}
	for _, ps := range s.Phases {
		name := ps.Name
		if name == "" {
			name = fmt.Sprintf("phase%d", ps.Phase)
		}
		fmt.Fprintf(&b, "phase %s (sent msgs/bytes, row = src, col = dst)\n", name)
		fmt.Fprintf(&b, "%8s", "")
		for dst := 0; dst < s.Ranks; dst++ {
			fmt.Fprintf(&b, " %12s", fmt.Sprintf("d%d", dst))
		}
		b.WriteString("\n")
		for src := 0; src < s.Ranks; src++ {
			fmt.Fprintf(&b, "%8s", fmt.Sprintf("s%d", src))
			for dst := 0; dst < s.Ranks; dst++ {
				if ps.SentMsgs[src][dst] == 0 {
					fmt.Fprintf(&b, " %12s", ".")
					continue
				}
				fmt.Fprintf(&b, " %12s", fmt.Sprintf("%d/%d", ps.SentMsgs[src][dst], ps.SentBytes[src][dst]))
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}
