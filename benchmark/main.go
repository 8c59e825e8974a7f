// Command benchmark is the repository's end-to-end benchmark: it runs one
// session-lifecycle workload against in-process engines over loopback TCP,
// checks every output bit-for-bit against plaintext inference, and prints
// every metric by name with its unit. See README.md in this directory.
//
//	go run ./benchmark -workload cold_cg -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cold_cg, buffered_cg, onthefly_sg or fleet_mix")
	seed := fs.Int64("seed", 1, "seed for inputs, arrival schedule and the client and model mix")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "append this run's record (header and metrics) to a JSON-lines file")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition, read by -compare for the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}

	// C = min(nproc, 4) caps the client connections, and is the open loop's
	// GOMAXPROCS; the closed loops run Go code on one thread (see spec.go).
	c := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(c)
	if !w.open {
		runtime.GOMAXPROCS(1)
	}
	rec, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, c, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := rec.appendTo(*out); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Result.Correct {
		return 1
	}
	return 0
}
