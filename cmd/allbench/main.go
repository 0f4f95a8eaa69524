// allbench regenerates every experiment table (E1-E19) in one run, or,
// with -table, a single table by ID. -big runs each table's larger sweep
// (tables without one print their default sizes).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 2018, "deterministic seed")
	table := flag.String("table", "", "regenerate one experiment table by ID (e.g. E9, E6c, E15); empty runs all")
	big := flag.Bool("big", false, "larger sweeps (slower)")
	flag.Parse()
	if *table != "" {
		t, ok := experiments.ByID(*table, *seed, *big)
		if !ok {
			fmt.Fprintf(os.Stderr, "allbench: unknown table %q; valid IDs: %s\n",
				*table, strings.Join(experiments.IDs(), ", "))
			os.Exit(2)
		}
		fmt.Println(t)
		return
	}
	for _, t := range experiments.All(*seed, *big) {
		fmt.Println(t)
	}
}
