// Command pisim runs the arrival-rate workload simulations (the paper's
// §4.2 and §5.4): mean inference latency under Poisson request streams with
// storage-constrained pre-compute buffering — Figures 7, 10, 12 and 13 —
// and the shared server of §5.2's discussion (multiclient).
//
// Usage:
//
//	pisim [-fig 7|10|12|13|multiclient|all] [-runs N]
//
// The paper averages 50 independent 24-hour simulations per point; -runs
// trades fidelity for speed.
package main

import (
	"flag"
	"fmt"
	"os"

	"privinf/internal/figures"
)

func main() {
	fig := flag.String("fig", "all", "which output to print: "+figures.Choices(figures.Workload))
	runs := flag.Int("runs", 10, "independent 24-hour simulations per data point (paper: 50)")
	flag.Parse()

	reports, err := figures.Select(figures.Workload, *fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pisim:", err)
		os.Exit(2)
	}
	for _, r := range reports {
		fmt.Println(r.Text(*runs))
	}
}
