// ocd-serve answers membership queries from a trained model checkpoint: it
// loads the state written by ocd-train -checkpoint, seals it into
// an immutable snapshot (version = the stored iteration), and serves the
// internal/serve HTTP/JSON API until interrupted.
//
// Usage:
//
//	ocd-serve -checkpoint model.ckpt -addr :7070
//	curl 'localhost:7070/topk?v=17&k=5'
//	curl 'localhost:7070/members?c=3&limit=20'
//	curl 'localhost:7070/shared?u=17&v=42'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		ckpt      = flag.String("checkpoint", "", "model checkpoint to serve (required)")
		addr      = flag.String("addr", ":7070", "HTTP listen address")
		threshold = flag.Float64("threshold", 0, "community membership cut-off for /members and /shared (0 = 1.5/K)")
	)
	flag.Parse()
	if *ckpt == "" {
		fatal(fmt.Errorf("-checkpoint is required"))
	}

	state, iter, err := core.LoadFile(*ckpt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %s: %d vertices, K=%d, iteration %d\n", *ckpt, state.N, state.K, iter)

	// Seal through the same TakeSnapshot path the training engines publish
	// with; the snapshot version is the checkpoint's iteration counter.
	pub := store.NewPublisher()
	eng := serve.NewEngine(float32(*threshold))
	eng.Attach(pub)
	snap, err := store.TakeSnapshot(store.NewLocal(state.Pi, state.PhiSum, state.K, 1), iter, state.Beta)
	if err != nil {
		fatal(err)
	}
	if err := pub.Publish(snap); err != nil {
		fatal(err)
	}

	srv := serve.New(*addr, eng, pub)
	bound, err := srv.Start()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving: http://%s/ (endpoints: /topk /members /shared /stats)\n", bound)

	// Serve until interrupted, then drain in-flight queries.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ocd-serve:", err)
	os.Exit(1)
}
