// Command bench is the repository's benchmark: it builds dramserve,
// dramrouter and dramtrain from the checkout, serves a fixed artifact from
// real server processes, drives them over loopback HTTP with load
// generated from -seed, checks every answer against an in-process
// reference, and prints every metric with its unit and sample count. The
// last line of standard output is the result as one JSON object.
//
//	bash bench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare -a DIR -b DIR
//
// README.md describes the workloads, the metrics and their bounds.
package main

import (
	"context"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() {
	// The generator's issuers block in nanosleep (see load.go) holding
	// their Ps; give the runtime as many again for everything else.
	runtime.GOMAXPROCS(runtime.NumCPU() + issuers)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var code int
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		code = runCompare(os.Args[2:], os.Stdout, os.Stderr)
	} else {
		code = runBench(ctx, os.Args[1:], os.Stdout, os.Stderr)
	}
	stop()
	os.Exit(code)
}
