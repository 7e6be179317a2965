// ocd-train trains the a-MMSB sampler on an edge-list graph. It is the one
// trainer of internal/trainer with -ranks defaulting to 1, the single-node
// (sequential or multi-threaded) sampler; see README.md for the flags.
//
//	ocd-train -graph dblp.txt -k 64 -iters 2000 -eval 100 -threads 8
package main

import (
	"fmt"
	"os"

	"repro/internal/trainer"
)

func main() {
	if err := trainer.Run("ocd-train", 1, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ocd-train:", err)
		os.Exit(1)
	}
}
