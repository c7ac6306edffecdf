package main

import (
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with NBODY_TEST_MAIN set,
// the test binary is the nbody binary.
func TestMain(m *testing.M) {
	if os.Getenv("NBODY_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestFollowerArgs(t *testing.T) {
	const addr = "127.0.0.1:4242"
	for _, tc := range []struct {
		name string
		argv []string
		want []string
	}{
		{"spawn", []string{"-n", "64", "-spawn", "-p", "4"}, []string{"-n", "64", "-p", "4"}},
		{"double dash", []string{"--spawn", "-p", "4"}, []string{"-p", "4"}},
		{"spawn=true", []string{"-spawn=true", "-p", "4"}, []string{"-p", "4"}},
		{"two-token rendezvous", []string{"-rendezvous", "old:1", "-p", "4"}, []string{"-p", "4"}},
		{"rendezvous=", []string{"-p", "4", "-rendezvous=old:1"}, []string{"-p", "4"}},
		{"subcommand first", []string{"sweep", "-spawn", "-cs", "1,2", "-ranks-per-proc", "2"},
			[]string{"sweep", "-cs", "1,2", "-ranks-per-proc", "2"}},
		{"order kept", []string{"-steps", "3", "-c", "2", "-matrix", "-seed=3"},
			[]string{"-steps", "3", "-c", "2", "-matrix", "-seed=3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := followerArgs(tc.argv, addr)
			want := append(tc.want, "-rendezvous="+addr)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("followerArgs(%q) = %q, want %q", tc.argv, got, want)
			}
		})
	}
}

// TestStepCounts runs the command on step counts it must refuse or
// report on: an error that names -steps, never a panic or a missing
// report, and a report labelled with the steps it covers — with
// -observe, the last chunk's.
func TestStepCounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		ok     bool
		output string // a line the output must contain
	}{
		{"run 0 steps observed", []string{"-n", "64", "-p", "4", "-steps", "0", "-observe", "2"}, true, "S (critical-path msg events)"},
		{"run 0 steps label", []string{"-n", "64", "-p", "4", "-steps", "0"}, true, "\nreport of 0 steps\n"},
		{"run label", []string{"-n", "64", "-p", "4", "-steps", "3"}, true, "\nreport of steps 1-3\n"},
		{"run chunked label", []string{"-n", "64", "-p", "4", "-steps", "5", "-observe", "2"}, true,
			"\nreport of steps 5-5 (the last -observe chunk)\nphase"},
		{"run negative steps", []string{"-n", "64", "-p", "4", "-steps", "-3", "-observe", "2"}, false, "-steps"},
		{"sweep 0 steps", []string{"sweep", "-n", "64", "-p", "4", "-cs", "1", "-steps", "0"}, false, "-steps"},
		{"sweep 1 step", []string{"sweep", "-n", "64", "-p", "4", "-cs", "1", "-steps", "1"}, true, "real-execution sweep"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "NBODY_TEST_MAIN=1")
			out, err := cmd.CombinedOutput()
			if (err == nil) != tc.ok {
				t.Fatalf("nbody %s: err = %v, want ok = %v\n%s", strings.Join(tc.args, " "), err, tc.ok, out)
			}
			if !strings.Contains(string(out), tc.output) || strings.Contains(string(out), "<nil>") ||
				strings.Contains(string(out), "panic") {
				t.Errorf("nbody %s: output lacks %q or reports nothing:\n%s", strings.Join(tc.args, " "), tc.output, out)
			}
		})
	}
}
