package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	nbody "repro"
)

// figures regenerates the evaluation figures of the paper from the
// machine models: per-timestep phase breakdowns versus replication
// factor (Figures 2 and 6) and strong-scaling efficiency (Figures 3 and
// 7), plus the paper's headline quantitative claims.
func figures(args []string) {
	fs := flag.NewFlagSet("nbody figures", flag.ExitOnError)
	var (
		fig     = fs.String("fig", "", "figure id (2a..2d, 3a, 3b, 6a..6d, 7a..7d)")
		all     = fs.Bool("all", false, "render every figure")
		csv     = fs.Bool("csv", false, "emit CSV instead of text tables")
		chart   = fs.Bool("chart", false, "emit stacked text bars (replication figures only)")
		outDir  = fs.String("o", "", "write per-figure files into this directory instead of stdout")
		claims  = fs.Bool("claims", false, "evaluate the paper's quantitative claims")
		compare = fs.Bool("compare", false, "print the Section II decomposition cost comparison")
		memory  = fs.Bool("memory", false, "print the memory-limited replication tables (Equation 4)")
	)
	fs.Parse(args)

	if *claims {
		s, err := nbody.PaperClaims()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(s)
		return
	}
	if *compare {
		fmt.Print(nbody.CostComparison(262144, 32768, []int{1, 4, 16, 64, 181}))
		return
	}
	if *memory {
		for _, m := range []nbody.MachineName{nbody.Hopper, nbody.Intrepid} {
			tbl, err := nbody.MemoryFeasibility(m, []int{8, 64, 512, 4096, 1 << 15, 1 << 18})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(tbl)
		}
		return
	}

	var ids []string
	switch {
	case *all:
		ids = nbody.FigureIDs()
	case *fig != "":
		ids = []string{*fig}
	default:
		fmt.Fprintln(os.Stderr, "usage: nbody figures -fig <id> | -all | -claims")
		fmt.Fprintf(os.Stderr, "figure ids: %v\n", nbody.FigureIDs())
		os.Exit(2)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	for _, id := range ids {
		var body string
		var err error
		ext := ".txt"
		switch {
		case *csv:
			body, err = nbody.FigureCSV(id)
			ext = ".csv"
		case *chart:
			body, err = nbody.FigureChart(id)
			if err != nil && *all {
				continue // scaling figures have no bar form
			}
			ext = ".chart.txt"
		default:
			body, err = nbody.Figure(id)
		}
		if err != nil {
			log.Fatal(err)
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, "figure-"+id+ext)
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", path)
			continue
		}
		fmt.Println(body)
	}
}
