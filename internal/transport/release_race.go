//go:build race

package transport

// Under the race detector Release scribbles over every frame it pools, so a
// use after release corrupts whatever reads it visibly, in every run.
func init() {
	scribble = func(b []byte) {
		for i := range b {
			b[i] = 0xA5
		}
	}
}
