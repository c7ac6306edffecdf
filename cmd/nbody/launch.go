package main

import (
	"log"
	"os"
	"os/exec"
	"strings"

	nbody "repro"
)

// setupMesh resolves the multi-process flags into this process's mesh
// membership. In -spawn mode the caller binds the rendezvous first
// (becoming proc 0), re-executes itself procs-1 times pointing the
// children at the bound address, and then accepts them; otherwise the
// process simply races to join the given rendezvous. Every process ends
// up parsing the same flag set — the spawner forwards its own argv,
// minus -spawn, with -rendezvous rewritten — which keeps collective
// decisions (step chunking, the sweep's configurations) symmetric across
// the mesh.
func setupMesh(p, ranksPerProc int, rendezvous string, spawn bool) *nbody.ProcGroup {
	if p%ranksPerProc != 0 {
		log.Fatalf("-ranks-per-proc %d does not divide -p %d", ranksPerProc, p)
	}
	procs := p / ranksPerProc
	if !spawn {
		if rendezvous == "" {
			log.Fatal("-ranks-per-proc without -spawn needs -rendezvous (every process must name the same address)")
		}
		proc, err := nbody.JoinProcs(rendezvous, procs, ranksPerProc)
		if err != nil {
			log.Fatal(err)
		}
		return proc
	}
	if rendezvous == "" {
		rendezvous = "127.0.0.1:0"
	}
	l, err := nbody.ListenProcs(rendezvous, procs, ranksPerProc)
	if err != nil {
		log.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	args := followerArgs(os.Args[1:], l.Addr())
	for i := 1; i < procs; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr // stdout stays unset: a follower discards its own (join)
		if err := cmd.Start(); err != nil {
			l.Close()
			log.Fatalf("spawning follower %d: %v", i, err)
		}
		go cmd.Wait() // reap; followers exit on their own once the run completes
	}
	proc, err := l.Accept()
	if err != nil {
		log.Fatal(err)
	}
	return proc
}

// followerArgs rewrites the spawner's argv for a follower process:
// -spawn is dropped and -rendezvous is replaced with the bound address,
// so the follower joins the mesh the parent is listening on while
// parsing an otherwise identical flag set. A leading subcommand word
// (sweep) passes through, and stays first.
func followerArgs(argv []string, addr string) []string {
	out := make([]string, 0, len(argv)+1)
	skipNext := false
	for _, a := range argv {
		if skipNext {
			skipNext = false
			continue
		}
		name := strings.TrimLeft(a, "-")
		switch {
		case name == "spawn" || strings.HasPrefix(name, "spawn="):
			continue
		case name == "rendezvous":
			skipNext = true // two-token form: -rendezvous addr
			continue
		case strings.HasPrefix(name, "rendezvous="):
			continue
		}
		out = append(out, a)
	}
	return append(out, "-rendezvous="+addr)
}
