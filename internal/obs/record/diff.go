package record

import (
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// MetricDoc is the comparison-plane view of a flight recording: a flat
// name → value metric map folded from its samples. obsdiff intersects
// two docs' metric names and gates the ratios.
type MetricDoc struct {
	Path     string
	Key      string // config key
	Metrics  map[string]float64
	StepWall []int64 // per-step wall_ns series, index = step
}

// FromRecording folds a recording into its metric document.
func FromRecording(meta Meta, samples []Sample) MetricDoc {
	doc := MetricDoc{
		Key:     meta.Key(),
		Metrics: map[string]float64{},
	}
	doc.Metrics["steps"] = float64(len(samples))
	if len(samples) == 0 {
		return doc
	}
	walls := make([]float64, len(samples))
	var sum float64
	var mx float64
	for i, s := range samples {
		walls[i] = float64(s.WallNs)
		sum += walls[i]
		if walls[i] > mx {
			mx = walls[i]
		}
		doc.StepWall = append(doc.StepWall, s.WallNs)
	}
	sort.Float64s(walls)
	steps := float64(len(samples))
	doc.Metrics["step.wall_ns.mean"] = sum / steps
	doc.Metrics["step.wall_ns.p50"] = walls[len(walls)/2]
	doc.Metrics["step.wall_ns.max"] = mx

	for ph, name := range meta.Phases {
		var ns, sb, sm, rb, rm int64
		for _, s := range samples {
			ns += s.PhaseNs[ph]
			sm += s.SentMsgs[ph]
			sb += s.SentBytes[ph]
			rm += s.RecvMsgs[ph]
			rb += s.RecvBytes[ph]
		}
		if ns == 0 && sm == 0 && rm == 0 {
			continue
		}
		pre := "phase." + name + "."
		doc.Metrics[pre+"ns_per_step"] = float64(ns) / steps
		doc.Metrics[pre+"sent_msgs_per_step"] = float64(sm) / steps
		doc.Metrics[pre+"sent_bytes_per_step"] = float64(sb) / steps
		doc.Metrics[pre+"recv_msgs_per_step"] = float64(rm) / steps
		doc.Metrics[pre+"recv_bytes_per_step"] = float64(rb) / steps
	}

	last := samples[len(samples)-1]
	doc.Metrics["comm.s.measured"] = float64(last.SMeasured)
	doc.Metrics["comm.w.measured_bytes"] = float64(last.WMeasured)
	if last.SLowerBound > 0 {
		doc.Metrics["comm.s.over_bound"] = float64(last.SMeasured) / float64(last.SLowerBound)
	}
	if last.WLowerBound > 0 {
		doc.Metrics["comm.w.over_bound"] = float64(last.WMeasured) / float64(last.WLowerBound)
	}
	doc.Metrics["timeline.dropped"] = float64(last.TimelineDropped)
	var heapMax, gorMax int64
	for _, s := range samples {
		if s.HeapBytes > heapMax {
			heapMax = s.HeapBytes
		}
		if s.Goroutines > gorMax {
			gorMax = s.Goroutines
		}
	}
	doc.Metrics["heap.max_bytes"] = float64(heapMax)
	doc.Metrics["goroutines.max"] = float64(gorMax)
	return doc
}

// LoadMetricDoc loads the flight recording at path (JSON lines, ".gz"
// transparently decompressed) and folds it into a metric document. A
// file that is not a recording is an error naming the path.
func LoadMetricDoc(path string) (MetricDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return MetricDoc{}, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return MetricDoc{}, fmt.Errorf("record: %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	meta, samples, err := ReadRecording(r)
	if err != nil {
		return MetricDoc{}, fmt.Errorf("record: %s: %w", path, err)
	}
	doc := FromRecording(meta, samples)
	doc.Path = path
	return doc, nil
}

// Direction classifies how a metric regresses.
type Direction int

const (
	// Neutral metrics are informational and never gate.
	Neutral Direction = iota
	// WorseUp metrics regress when they grow (times, bytes, allocs,
	// drops, message counts).
	WorseUp
	// WorseDown metrics regress when they shrink (speedups).
	WorseDown
)

func (d Direction) String() string {
	switch d {
	case WorseUp:
		return "worse-if-up"
	case WorseDown:
		return "worse-if-down"
	default:
		return "neutral"
	}
}

// worseUpMarks are substrings that classify a metric as WorseUp. Comm
// counters are included: they are deterministic per configuration, so
// growth against a same-key baseline is a real protocol regression, not
// noise.
var worseUpMarks = []string{
	"ns_per_op", "ns_per_step", "wall_ns", "_ns",
	"allocs", "bytes", "msgs",
	"dropped", "goroutines", "over_bound", "comm.s.measured",
}

// DirectionOf classifies a metric name. "overhead_frac" and "steps"
// style metrics fall through to Neutral.
func DirectionOf(name string) Direction {
	if strings.Contains(name, "speedup") {
		return WorseDown
	}
	for _, mark := range worseUpMarks {
		if strings.Contains(name, mark) {
			return WorseUp
		}
	}
	return Neutral
}

// DiffRow is one compared metric.
type DiffRow struct {
	Name      string
	Old, New  float64
	Ratio     float64 // New/Old; +Inf when Old == 0 and New > 0
	Direction Direction
	Threshold float64 // the gate applied (0 = report only)
	Breach    bool
}

// DiffOptions configures the gate.
type DiffOptions struct {
	// Threshold is the default regression ratio: a WorseUp metric
	// breaches when New > Old·Threshold, a WorseDown one when
	// New < Old/Threshold. 0 disables gating (report-only).
	Threshold float64
	// PerMetric overrides the threshold for exact metric names.
	PerMetric map[string]float64
	// Exact lists substrings of metric names that must match exactly:
	// any difference at all breaches, regardless of direction or
	// threshold. Used to hold deterministic quantities (message counts,
	// measured S/W) invariant, e.g. across transports.
	Exact []string
}

// Diff compares the metrics present in both docs and returns rows
// sorted by name, breaches first. When both docs carry per-step wall
// series, an additional "step.wall_ns.aligned_p50" row compares the
// medians over the step indices the runs share — the step-aligned
// comparison that stays fair when one recording is longer.
func Diff(oldDoc, newDoc MetricDoc, opt DiffOptions) []DiffRow {
	var rows []DiffRow
	add := func(name string, ov, nv float64) {
		row := DiffRow{Name: name, Old: ov, New: nv, Direction: DirectionOf(name)}
		switch {
		case ov != 0:
			row.Ratio = nv / ov
		case nv == 0:
			row.Ratio = 1
		default:
			row.Ratio = math.Inf(1)
		}
		thr := opt.Threshold
		if t, ok := opt.PerMetric[name]; ok {
			thr = t
		}
		row.Threshold = thr
		if thr > 0 {
			switch row.Direction {
			case WorseUp:
				row.Breach = row.Ratio > thr
			case WorseDown:
				row.Breach = row.Ratio < 1/thr
			}
		}
		for _, sub := range opt.Exact {
			if strings.Contains(name, sub) && ov != nv {
				row.Breach = true
			}
		}
		rows = append(rows, row)
	}
	for name, ov := range oldDoc.Metrics {
		if nv, ok := newDoc.Metrics[name]; ok {
			add(name, ov, nv)
		}
	}
	if n := min(len(oldDoc.StepWall), len(newDoc.StepWall)); n > 0 {
		add("step.wall_ns.aligned_p50", medianI64(oldDoc.StepWall[:n]), medianI64(newDoc.StepWall[:n]))
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Breach != rows[j].Breach {
			return rows[i].Breach
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

func medianI64(v []int64) float64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
