package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	nbody "repro"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {120, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	// The default set must support the p90 the per-layer table quotes.
	if got := tailPercentile(defaultRounds); got < 90 {
		t.Errorf("%d default rounds support only p%g, nbody.step_us_p90 needs p90", defaultRounds, got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for p, want := range map[float64]float64{0: 1, 25: 2, 50: 3, 75: 4, 100: 5, 90: 4.6} {
		if got := percentile(xs, p); got < want-1e-12 || got > want+1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
}

func TestQuarterDrift(t *testing.T) {
	flat := []float64{10, 10, 10, 10, 10, 10, 10, 10}
	if d := quarterDrift(flat); d != 0 {
		t.Errorf("flat series drifts %g", d)
	}
	stepped := []float64{10, 10, 10, 10, 12, 12, 12, 12}
	if d := quarterDrift(stepped); d < 0.15 || d > 0.2 {
		t.Errorf("a 20%% step reads as drift %g", d)
	}
}

func TestChecksumStable(t *testing.T) {
	s, err := nbody.New(workloads[3].config(7))
	if err != nil {
		t.Fatal(err)
	}
	ps := s.Particles()
	a, b := checksum(ps), checksum(s.Particles())
	if a != b {
		t.Fatalf("same state, checksums %016x and %016x", a, b)
	}
	// One flipped sign bit of one force component must show: -0 and +0
	// compare equal as floats but are different states bitwise.
	ps[len(ps)/2].Force.X = -ps[len(ps)/2].Force.X
	if checksum(ps) == a {
		t.Fatal("checksum blind to a flipped sign bit")
	}
}

func TestWorkloadConfigsAccepted(t *testing.T) {
	for _, w := range workloads {
		cfg := w.config(3)
		if cfg.Seed != 3 {
			t.Errorf("%s: seed not passed through", w.name)
		}
		if _, err := nbody.New(cfg); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if w.batch < 1 {
			t.Errorf("%s: batch %d", w.name, w.batch)
		}
		if w.socket && cfg.P%2 != 0 {
			t.Errorf("%s: %d ranks do not split over two procs", w.name, cfg.P)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricGrammarAndCaps(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside the grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	setup, maxBound := false, 0.0
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside [0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, d := range endToEnd {
		if d.Name == "setup_s" && d.Bound != maxBound {
			t.Errorf("setup_s has bound %g, the largest is %g", d.Bound, maxBound)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q outside the grammar", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		name(d.Name)
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json at the root of the
// repository to the tables in this package.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the package", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the package %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s: bound in BENCHMARK.json does not match %g", d.Name, d.Bound)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd, true)
	same("per-layer", doc.PerLayer, perLayer, false)
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	endOuter := tr.begin("outer")
	endInner := tr.begin("inner")
	time.Sleep(2 * time.Millisecond)
	endInner()
	endSibling := tr.begin("sibling")
	endSibling()
	endOuter()
	spans := tr.finish()
	if len(spans) != 3 || spans[1].Parent != 0 || spans[2].Parent != 0 || spans[0].Parent != -1 {
		t.Fatalf("nesting wrong: %+v", spans)
	}
	outer, inner, sibling := spans[0], spans[1], spans[2]
	dur := func(s span) int64 { return s.EndNs - s.StartNs }
	if outer.SelfNs != dur(outer)-dur(inner)-dur(sibling) {
		t.Errorf("outer self %d, want span %d minus children %d+%d", outer.SelfNs, dur(outer), dur(inner), dur(sibling))
	}
	if inner.SelfNs != dur(inner) || dur(inner) < int64(2*time.Millisecond) {
		t.Errorf("leaf self %d, span %d", inner.SelfNs, dur(inner))
	}
	var off *tracer
	off.begin("ignored")() // the nil tracer records nothing and must not panic
}

func TestVerdict(t *testing.T) {
	step := endToEnd[0]
	msgs := endToEnd[3]
	for _, tc := range []struct {
		d             metricDef
		first, second float64
		drift         float64
		want          string
	}{
		{step, 100, 110, 0.02, "agrees"},
		{step, 100, 70, 0.02, "DIFFERS"},
		{step, 100, 140, 0.15, "UNRESOLVED"}, // the host moved: says nothing about the code
		{msgs, 38, 38, 0.5, "agrees"},
		{msgs, 38, 39, 0.5, "DIFFERS"}, // a count never hides behind host drift
	} {
		if _, got := verdict(tc.d, tc.first, tc.second, tc.drift); got != tc.want {
			t.Errorf("%s %g -> %g at drift %g: %s, want %s", tc.d.Name, tc.first, tc.second, tc.drift, got, tc.want)
		}
	}
}

// lastLine parses the result object a run printed last.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res
}

// TestSmokeUntraced runs the whole command over every workload,
// the socket twin included, for two rounds.
func TestSmokeUntraced(t *testing.T) {
	var stdout, stderr bytes.Buffer
	samples := filepath.Join(t.TempDir(), "samples.jsonl")
	code := run([]string{"-rounds", "2", "-seed", "5", "-scratch", t.TempDir(), "-samples", samples}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	res := lastLine(t, stdout.String())
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v", res)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			m, ok := res.Metrics[w.name+"/"+d.Name]
			if !ok || m.Unit != d.Unit || m.Value <= 0 {
				t.Errorf("%s/%s: %+v (present %v)", w.name, d.Name, m, ok)
			}
		}
	}
	if len(res.Metrics) != len(workloads)*len(endToEnd) {
		t.Errorf("%d metrics in the result, want %d", len(res.Metrics), len(workloads)*len(endToEnd))
	}
	// The twins run one schedule: same counts, whatever the transport.
	for _, name := range []string{"comm_msgs_per_step", "comm_bytes_per_step"} {
		if a, b := res.Metrics["ap-latency/"+name], res.Metrics["ap-socket/"+name]; a != b {
			t.Errorf("%s: ap-latency %v, ap-socket %v", name, a, b)
		}
	}
	data, err := os.ReadFile(samples)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(string(data), "\n"), 1+2*len(workloads); got != want {
		t.Errorf("%d lines in the samples file, want %d", got, want)
	}
}

// TestSmokeTraced runs the traced set of one small workload: every
// per-layer metric, and a span file that nests workload → round → call.
func TestSmokeTraced(t *testing.T) {
	var stdout, stderr bytes.Buffer
	spans := filepath.Join(t.TempDir(), "spans.json")
	code := run([]string{"--workload", "cutoff-small", "--seed", "2", "--rounds", "2", "--trace", "1",
		"-scratch", t.TempDir(), "-trace-out", spans}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	res := lastLine(t, stdout.String())
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("correct %v, %d metrics, want %d", res.Correct, len(res.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: %+v (present %v)", d.Name, m, ok)
		}
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Env.Schema != schemaVersion || !doc.Env.Traced {
		t.Errorf("trace file stamp %+v", doc.Env)
	}
	path := func(s span) string {
		names := []string{s.Name}
		for s.Parent >= 0 {
			s = doc.Spans[s.Parent]
			names = append([]string{s.Name}, names...)
		}
		return strings.Join(names, " > ")
	}
	found := false
	for _, s := range doc.Spans {
		found = found || path(s) == "cutoff-small > round 1 > Run(batch)"
		if s.EndNs < s.StartNs || s.SelfNs < 0 {
			t.Errorf("span %q: start %d end %d self %d", path(s), s.StartNs, s.EndNs, s.SelfNs)
		}
	}
	if !found {
		t.Error("no span cutoff-small > round 1 > Run(batch)")
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-agree", "-trace", "1"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
