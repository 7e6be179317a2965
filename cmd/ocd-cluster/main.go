// ocd-cluster trains the a-MMSB sampler on an edge-list graph. It is the one
// trainer of internal/trainer with -ranks defaulting to 4, the distributed
// engine on a simulated cluster; see README.md for the flags.
//
//	ocd-cluster -graph dblp.txt -ranks 8 -k 64 -iters 500 -pipeline
package main

import (
	"fmt"
	"os"

	"repro/internal/trainer"
)

func main() {
	if err := trainer.Run("ocd-cluster", 4, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ocd-cluster:", err)
		os.Exit(1)
	}
}
