// Command piopt prints the paper's optimization studies: client storage
// under Client-Garbler (Figure 8), layer-parallel HE (Figure 9), wireless
// slot allocation (Figure 11), the future-optimization waterfall
// (Figure 14), the client energy analysis (§5.1) and the offline schedule
// ablation (schedules).
//
// Usage:
//
//	piopt [-fig 8|9|11|14|energy|schedules|all]
package main

import (
	"flag"
	"fmt"
	"os"

	"privinf/internal/figures"
)

func main() {
	fig := flag.String("fig", "all", "which output to print: "+figures.Choices(figures.Optimization))
	flag.Parse()

	reports, err := figures.Select(figures.Optimization, *fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "piopt:", err)
		os.Exit(2)
	}
	for _, r := range reports {
		fmt.Println(r.Text(0))
	}
}
