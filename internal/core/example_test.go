package core_test

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/store"
)

// Example shows the minimal training loop: generate a graph, hold out a test
// set, run the sampler, and read the model's state.
func Example() {
	g, _, err := gen.Planted(gen.DefaultPlanted(200, 4, 1000, 7))
	if err != nil {
		panic(err)
	}
	train, held, err := graph.Split(g, g.NumEdges()/10, mathx.NewRNG(8))
	if err != nil {
		panic(err)
	}

	cfg := core.DefaultConfig(4, 9)
	sampler, err := core.NewSampler(cfg, train, held, core.SamplerOptions{Threads: 2})
	if err != nil {
		panic(err)
	}
	sampler.Run(50)

	fmt.Println("iterations:", sampler.Iteration())
	fmt.Println("state valid:", sampler.State.Validate() == nil)
	fmt.Println("communities:", sampler.State.K)
	// Output:
	// iterations: 50
	// state valid: true
	// communities: 4
}

// ExampleSaveStore demonstrates checkpointing a chain and reading it back.
func ExampleSaveStore() {
	g, _, _ := gen.Planted(gen.DefaultPlanted(100, 4, 500, 1))
	cfg := core.DefaultConfig(4, 2)
	s, _ := core.NewSampler(cfg, g, nil, core.SamplerOptions{})
	s.Run(10)

	var buf writerBuffer
	if err := core.SaveStore(&buf, store.NewLocal(s.State.Pi, s.State.PhiSum, cfg.K, 1), s.State.Theta, s.Iteration()); err != nil {
		panic(err)
	}
	state, iter, err := core.Load(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println("resumed at iteration:", iter)
	fmt.Println("same dimensions:", state.N == 100 && state.K == 4)
	// Output:
	// resumed at iteration: 10
	// same dimensions: true
}

// writerBuffer is a minimal in-memory io.ReadWriter for the example.
type writerBuffer struct {
	data []byte
	off  int
}

func (b *writerBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *writerBuffer) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}
