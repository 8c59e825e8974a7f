// Command pichar prints the single-inference characterization of hybrid
// private inference (the paper's §4): per-inference storage (Figure 3),
// compute latency (Figure 4), communication latency vs bandwidth
// (Figure 5), protocol annotations (Figure 2) and the Server-Garbler time
// breakdown (Table 1).
//
// Usage:
//
//	pichar [-fig 2|3|4|5|t1|all]
package main

import (
	"flag"
	"fmt"
	"os"

	"privinf/internal/figures"
)

func main() {
	fig := flag.String("fig", "all", "which output to print: "+figures.Choices(figures.Characterization))
	flag.Parse()

	reports, err := figures.Select(figures.Characterization, *fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pichar:", err)
		os.Exit(2)
	}
	for _, r := range reports {
		fmt.Println(r.Text(0))
	}
}
