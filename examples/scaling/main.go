// Scaling reproduces the paper's strong-scaling story on the machine
// models: it predicts per-timestep phase breakdowns and parallel
// efficiencies for the Figure 2b/3a configuration (196,608 particles on
// up to 24,576 Hopper cores), showing that with the right replication
// factor the algorithm strong-scales almost perfectly while c=1 decays.
package main

import (
	"fmt"
	"log"

	nbody "repro"
)

func main() {
	log.SetFlags(0)
	const n = 196608

	fmt.Println("modeled time per timestep on Hopper (seconds), n=196,608:")
	fmt.Printf("%-8s %12s %12s %12s\n", "cores", "c=1", "c=16", "best speedup")
	for _, p := range []int{1536, 3072, 6144, 12288, 24576} {
		b1, err := nbody.Predict(nbody.Prediction{Machine: nbody.Hopper, P: p, N: n, C: 1})
		if err != nil {
			log.Fatal(err)
		}
		b16, err := nbody.Predict(nbody.Prediction{Machine: nbody.Hopper, P: p, N: n, C: 16})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %12.5f %12.5f %11.2fx\n", p, b1.Total(), b16.Total(), b1.Total()/b16.Total())
	}

	fmt.Println("\nparallel efficiency vs. one core (Figure 3a):")
	fmt.Printf("%-8s %8s %8s\n", "cores", "c=1", "c=16")
	for _, p := range []int{1536, 3072, 6144, 12288, 24576} {
		e1, err := nbody.PredictEfficiency(nbody.Prediction{Machine: nbody.Hopper, P: p, N: n, C: 1})
		if err != nil {
			log.Fatal(err)
		}
		e16, err := nbody.PredictEfficiency(nbody.Prediction{Machine: nbody.Hopper, P: p, N: n, C: 16})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %8.3f %8.3f\n", p, e1, e16)
	}

	fmt.Println("\nfull figure table (`nbody figures -all` renders all of 2a-2d, 3a-3b, 6a-6d, 7a-7d):")
	tbl, err := nbody.Figure("3a")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tbl)
}
