// ocd-train trains the a-MMSB sampler on an edge-list graph, on one rank or
// on -ranks N simulated ranks of the distributed engine (internal/trainer);
// see README.md for the flags.
//
//	ocd-train -graph dblp.txt -k 64 -iters 2000 -eval 100 -threads 8
//	ocd-train -graph dblp.txt -ranks 8 -k 64 -iters 500
package main

import (
	"fmt"
	"os"

	"repro/internal/trainer"
)

func main() {
	if err := trainer.Run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ocd-train:", err)
		os.Exit(1)
	}
}
