package trace

import (
	"encoding/json"
	"time"
)

// PhaseSummary is the serialized form of one phase's critical-path and
// aggregate numbers.
type PhaseSummary struct {
	Phase        string  `json:"phase"`
	MaxSent      int64   `json:"max_sent_msgs"`
	MaxSentBytes int64   `json:"max_sent_bytes"`
	MaxRecv      int64   `json:"max_recv_msgs"`
	MaxRecvBytes int64   `json:"max_recv_bytes"`
	MaxTimeSec   float64 `json:"max_time_sec"`
	SumTimeSec   float64 `json:"sum_time_sec"`
	Imbalance    float64 `json:"imbalance"`
}

// Summary is the serialized form of a Report: the per-phase breakdown
// plus the footer quantities (S, W, compute imbalance). Field names are
// append-only so serialized reports stay backward-readable.
type Summary struct {
	Ranks            int            `json:"ranks"`
	S                int64          `json:"s_critical_path"`
	W                int64          `json:"w_critical_path_bytes"`
	SLowerBound      float64        `json:"s_lower_bound,omitempty"`
	WLowerBound      float64        `json:"w_lower_bound_bytes,omitempty"`
	TimelineDropped  int64          `json:"timeline_dropped,omitempty"`
	ComputeImbalance float64        `json:"compute_imbalance"`
	WorkerImbalance  float64        `json:"worker_imbalance"`
	KernelImpl       string         `json:"kernel_impl,omitempty"`
	SocketFrames     int64          `json:"socket_frames,omitempty"`
	SocketFlushes    int64          `json:"socket_flushes,omitempty"`
	Phases           []PhaseSummary `json:"phases"`
}

// Summary flattens the report into its serializable form: per-phase
// critical-path counts, times, and imbalance, plus the aggregate S, W
// and compute imbalance. Idle phases are omitted.
func (r *Report) Summary() Summary {
	out := Summary{
		Ranks:            r.Ranks,
		S:                r.S(),
		W:                r.W(),
		SLowerBound:      r.SLowerBound,
		WLowerBound:      r.WLowerBound,
		TimelineDropped:  r.TimelineDropped,
		ComputeImbalance: r.ComputeImbalance(),
		WorkerImbalance:  r.WorkerImbalance(),
		KernelImpl:       r.KernelImpl,
		SocketFrames:     r.SocketFrames,
		SocketFlushes:    r.SocketFlushes,
	}
	for _, p := range Phases() {
		cp := r.CriticalPath[p]
		if cp.Events() == 0 && cp.Time == 0 {
			continue
		}
		out.Phases = append(out.Phases, PhaseSummary{
			Phase:        p.String(),
			MaxSent:      cp.Messages,
			MaxSentBytes: cp.Bytes,
			MaxRecv:      cp.RecvMessages,
			MaxRecvBytes: cp.RecvBytes,
			MaxTimeSec:   cp.Time.Seconds(),
			SumTimeSec:   time.Duration(r.Sum[p].Time).Seconds(),
			Imbalance:    r.Imbalance(p),
		})
	}
	return out
}

// JSON serializes the report's Summary for external tooling.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Summary(), "", "  ")
}

// ParseSummary decodes JSON produced by Report.JSON (of this or any
// earlier version; fields added later decode to their zero values).
func ParseSummary(data []byte) (Summary, error) {
	var s Summary
	err := json.Unmarshal(data, &s)
	return s, err
}
