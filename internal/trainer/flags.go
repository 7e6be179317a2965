package trainer

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/store"
)

// run is one invocation of the trainer. Flags bind straight into the option
// structs the engine already takes — core.Config, dist.Options and
// store.MmapOptions; the remaining fields are what belongs to the command
// line alone: paths, listen addresses and fault-injection targets.
type run struct {
	out io.Writer

	cfg  core.Config
	opt  dist.Options
	mmap store.MmapOptions

	graphPath, resume, communities, metricsOut string
	stream, auc, pprof, rankTable              bool
	heldDiv, posteriorSamples                  int

	serveAt, monitorAt, transport string
	piBackend, piDir              string

	failRank, failIter, slowRank int
	slowSend, slowPhi            time.Duration

	// ids maps the graph's dense vertex ids back to the -graph file's
	// (graph.ReadSNAP's map; nil under -stream, which keeps the file's ids).
	ids []int64

	// needsRanks holds each flag that would be a silent no-op at -ranks 1 —
	// no sockets, no collective sends, no peer to shed work to — filled by
	// flagSet where the flag is defined. Setting one explicitly at -ranks 1
	// is a start-up error (validate); every other flag works at any -ranks.
	needsRanks map[string]bool
}

// requires maps each flag that only takes effect beside another to that
// flag, and the value it must hold when one is named ("pi-backend mmap");
// with no value, any but its default. Setting the first explicitly while
// the second does not hold is a start-up error naming both (validate).
var requires = map[string]string{
	"checkpoint-every": "checkpoint",
	"publish-every":    "serve",
	"pi-dir":           "pi-backend mmap",
	"pi-shard-rows":    "pi-backend mmap",
	"rebalance-window": "rebalance",
	"fail-iter":        "fail-rank",
	"slow-send":        "slow-rank",
	"pprof":            "monitor",
}

// flagSet is the one flag table: every flag of ocd-train is defined here,
// once.
func (r *run) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("ocd-train", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // Run reports parse errors and -h itself
	r.cfg = core.DefaultConfig(0, 0)
	c, o := &r.cfg, &r.opt
	r.needsRanks = map[string]bool{}
	multi := func(name string) string { r.needsRanks[name] = true; return name }

	fs.StringVar(&r.graphPath, "graph", "", "input SNAP edge-list (required)")
	fs.BoolVar(&r.stream, "stream", false, "stream the edge list from disk (requires a '# Nodes: <n>' header; avoids the transient edge-list copy)")
	fs.IntVar(&r.heldDiv, "heldout-div", 50, "held-out links = |E| / this")
	fs.IntVar(&o.Ranks, "ranks", 1, "cluster size: the number of simulated ranks the engine runs on (1 = one in-process rank)")
	fs.IntVar(&o.Threads, "threads", 0, "worker threads per rank (0 = GOMAXPROCS / ranks)")
	fs.IntVar(&c.K, "k", 32, "number of latent communities")
	fs.Uint64Var(&c.Seed, "seed", 42, "random seed")
	fs.Float64Var(&c.Alpha, "alpha", 0, "Dirichlet concentration (0 = 1/K)")
	fs.IntVar(&o.Iterations, "iters", 1000, "target iteration: training runs until this many iterations have completed, counting those of a -resume checkpoint")
	fs.IntVar(&o.EvalEvery, "eval", 100, "perplexity evaluation interval (0 = never)")
	fs.IntVar(&o.MinibatchPairs, "minibatch", 256, "minibatch size in vertex pairs")
	fs.BoolVar(&o.Stratified, "stratified", false, "use stratified random node minibatches")
	fs.IntVar(&o.NeighborCount, "neighbors", 32, "neighbor sample size |V_n|")
	fs.BoolVar(&o.UniformNeighbors, "uniform-neighbors", false, "use the paper's Eqn (5) uniform neighbor sampling")

	fs.StringVar(&o.CheckpointPath, "checkpoint", "", "write a checkpoint of (π, Σφ, θ, iteration) to this file at run end")
	fs.IntVar(&o.CheckpointEvery, "checkpoint-every", 0, "with -checkpoint, additionally write it every this many iterations (0 = at run end only)")
	fs.StringVar(&r.resume, "resume", "", "resume from a -checkpoint file: training continues at its iteration, bit-identical to a run that never stopped")
	fs.StringVar(&r.communities, "communities", "", "write detected communities to this path")
	fs.BoolVar(&r.auc, "auc", false, "also report held-out link-prediction AUC")
	fs.StringVar(&r.metricsOut, "metrics-out", "", "write the JSONL run log (events and every rank's spans; ocd-analyze reads it) to this file (- = stdout)")
	fs.StringVar(&r.serveAt, "serve", "", "answer membership queries over HTTP on this address while training (e.g. :7070)")
	fs.IntVar(&o.PublishEvery, "publish-every", 1, "with -serve, publish a fresh snapshot every this many iterations")

	fs.IntVar(&r.posteriorSamples, "posterior-samples", 0, "average this many chain samples (20 iterations apart, past -iters) for -auc and -communities")
	fs.StringVar(&r.piBackend, "pi-backend", "local", "π table backend: local (in-RAM) or mmap (sharded memory-mapped files, one directory per rank)")
	fs.StringVar(&r.piDir, "pi-dir", "", "directory for the mmap π shards, one rank-<r> subdirectory per rank (none may already hold a store; required with -pi-backend mmap)")
	fs.IntVar(&r.mmap.ShardRows, "pi-shard-rows", store.DefaultShardRows, "rows per mmap shard file")
	fs.IntVar(&r.failRank, "fail-rank", -1, "fault injection: rank to crash (-1 = none)")
	fs.IntVar(&r.failIter, "fail-iter", 0, "fault injection: iteration at which -fail-rank crashes")
	fs.StringVar(&r.monitorAt, "monitor", "", "serve live metrics (/metrics) and the run log with its spans (/events, SSE) over HTTP on this address (e.g. :6060 or 127.0.0.1:0)")
	fs.BoolVar(&r.pprof, "pprof", false, "with -monitor, expose net/http/pprof under /debug/pprof/ (explicit opt-in; enables block profiling)")
	fs.BoolVar(&r.rankTable, "rank-table", false, "print the per-rank × per-stage time table after the run")

	// Meaningful only between ranks (-ranks >= 2).
	fs.StringVar(&r.transport, multi("transport"), "inproc", "rank interconnect: inproc (shared-memory fabric) or tcp (loopback mesh, real wire framing)")
	fs.IntVar(&r.slowRank, multi("slow-rank"), -1, "fault injection: rank whose collective sends are delayed by -slow-send (-1 = none); the straggler report should flag it")
	fs.DurationVar(&r.slowSend, multi("slow-send"), time.Millisecond, "per-send delay injected at -slow-rank")
	fs.DurationVar(&r.slowPhi, multi("slow-phi"), 0, "fault injection: per-assigned-node compute delay injected into -slow-rank's update_phi — the degraded-CPU straggler -rebalance can cure")
	fs.BoolVar(&o.Rebalance, multi("rebalance"), false, "close the straggler loop: re-shard each window's minibatch away from flagged ranks (trained model stays bit-identical)")
	fs.IntVar(&o.RebalanceWindow, multi("rebalance-window"), engine.DefaultRebalanceWindow, "straggler-mitigation window in iterations")
	return fs
}

// parse fills r from args and validates it. It returns (false, nil) when the
// command line asked for the usage text, which it has then printed.
func (r *run) parse(args []string) (ok bool, err error) {
	fs := r.flagSet()
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(r.out)
			fs.Usage()
			return false, nil
		}
		return false, err
	}
	if fs.NArg() > 0 {
		return false, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err := r.validate(fs); err != nil {
		return false, err
	}
	if r.cfg.Alpha <= 0 {
		r.cfg.Alpha = 1 / float64(r.cfg.K)
	}
	if r.opt.Threads <= 0 {
		r.opt.Threads = max(1, runtime.GOMAXPROCS(0)/r.opt.Ranks)
	}
	r.mmap.Threads = r.opt.Threads
	// The paper's §III-D schedule: prefetch the next minibatch, and overlap
	// π loads with compute wherever there is a peer to load from.
	r.opt.Pipeline = true
	// A run that writes a log records its spans into it.
	r.opt.Trace = r.metricsOut != "" || r.monitorAt != ""
	return true, nil
}

// validate is the fail-fast contract: a command line that cannot take effect
// as written is an error before the graph is even loaded.
func (r *run) validate(fs *flag.FlagSet) error {
	o := &r.opt
	switch {
	case r.graphPath == "":
		return fmt.Errorf("-graph is required")
	case o.Ranks < 1:
		return fmt.Errorf("-ranks %d: need at least 1", o.Ranks)
	case o.Iterations < 1:
		return fmt.Errorf("-iters %d: need at least 1", o.Iterations)
	case r.heldDiv < 1:
		return fmt.Errorf("-heldout-div %d: need at least 1", r.heldDiv)
	case o.MinibatchPairs < 1:
		return fmt.Errorf("-minibatch %d: need at least 1", o.MinibatchPairs)
	case o.NeighborCount < 1:
		return fmt.Errorf("-neighbors %d: need at least 1", o.NeighborCount)
	case o.EvalEvery < 0:
		return fmt.Errorf("-eval %d: need 0 (never) or more", o.EvalEvery)
	case o.CheckpointEvery < 0:
		return fmt.Errorf("-checkpoint-every %d: need 0 (at run end only) or more", o.CheckpointEvery)
	case o.PublishEvery < 1:
		return fmt.Errorf("-publish-every %d: need at least 1", o.PublishEvery)
	case o.RebalanceWindow < 1:
		return fmt.Errorf("-rebalance-window %d: need at least 1", o.RebalanceWindow)
	}
	// A flag the user set explicitly that cannot take effect at -ranks 1, or
	// that needs another flag the command line does not set, is rejected by
	// name.
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil {
			return
		}
		if r.needsRanks[f.Name] && o.Ranks == 1 {
			err = fmt.Errorf("-%s needs -ranks >= 2, but -ranks is 1", f.Name)
		} else if req, ok := requires[f.Name]; ok {
			name, value, _ := strings.Cut(req, " ")
			other := fs.Lookup(name)
			if got := other.Value.String(); got == other.DefValue || value != "" && got != value {
				err = fmt.Errorf("-%s requires -%s", f.Name, req)
			}
		}
	})
	if err != nil {
		return err
	}
	// Past that, a flag -ranks 1 cannot use still holds its default, so the
	// remaining checks need not ask how many ranks run.
	if err := validateFaultFlags(o.Ranks, r.failRank, r.slowRank, r.slowPhi); err != nil {
		return err
	}
	if r.transport != "inproc" && r.transport != "tcp" {
		return fmt.Errorf("unknown -transport %q (want inproc or tcp)", r.transport)
	}
	switch r.piBackend {
	case "local":
	case "mmap":
		if r.piDir == "" {
			return fmt.Errorf("-pi-backend mmap requires -pi-dir")
		}
		// These consumers materialise or post-process the full π table in RAM,
		// which is exactly what the mmap backend exists to avoid. Use the
		// checkpoint (-checkpoint) or the serving snapshot tier instead.
		if r.posteriorSamples > 0 || r.auc || r.communities != "" {
			return fmt.Errorf("-posterior-samples/-auc/-communities need the in-RAM backend; with -pi-backend mmap use -checkpoint and post-process")
		}
	default:
		return fmt.Errorf("-pi-backend must be local or mmap, got %q", r.piBackend)
	}
	return nil
}

// validateFaultFlags rejects fault-injection targets that cannot take
// effect, instead of silently running a healthy cluster: -fail-rank and
// -slow-rank must name a rank inside [0, ranks) (or -1 to disable), and
// -slow-phi needs -slow-rank to say which rank's compute is degraded.
func validateFaultFlags(ranks, failRank, slowRank int, slowPhi time.Duration) error {
	if failRank < -1 || failRank >= ranks {
		return fmt.Errorf("-fail-rank %d outside the cluster [0, %d) (-1 disables)", failRank, ranks)
	}
	if slowRank < -1 || slowRank >= ranks {
		return fmt.Errorf("-slow-rank %d outside the cluster [0, %d) (-1 disables)", slowRank, ranks)
	}
	if slowPhi < 0 {
		return fmt.Errorf("-slow-phi %v is negative", slowPhi)
	}
	if slowPhi > 0 && slowRank < 0 {
		return fmt.Errorf("-slow-phi needs -slow-rank to name the degraded rank")
	}
	return nil
}
