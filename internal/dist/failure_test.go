package dist

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/transport"
)

// runWithTimeout bounds a distributed run: the whole point of the abort
// protocol is that a failing rank makes Run return, never hang.
func runWithTimeout(t *testing.T, timeout time.Duration, fn func() (*Result, error)) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := fn()
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(timeout):
		t.Fatalf("distributed run still blocked after %v — abort propagation failed", timeout)
		return nil, nil
	}
}

// failAt returns a FaultHook that fails `rank` at iteration `iter`.
func failAt(rank, iter int) func(int, int) error {
	return func(r, t int) error {
		if r == rank && t == iter {
			return fmt.Errorf("simulated crash of rank %d at iteration %d", rank, iter)
		}
		return nil
	}
}

// deployTap wraps rank 0's conn and hands the first deployment frame rank 0
// scatters to rank 1 to edit, which returns the bytes actually sent. It is
// the first non-empty collective send between the two: every earlier one is
// a barrier, and DKV traffic runs on tags from cluster.TagUserBase up.
type deployTap struct {
	transport.Conn
	edit func([]byte) []byte
	once sync.Once
}

func (c *deployTap) Send(to int, tag uint32, payload []byte) error {
	if to == 1 && tag < cluster.TagUserBase && len(payload) > 0 {
		c.once.Do(func() { payload = c.edit(payload) })
	}
	return c.Conn.Send(to, tag, payload)
}

// tapDeployment runs one iteration on 2 ranks with rank 0's conn tapped by
// edit, and returns the frame edit saw and the run's error.
func tapDeployment(t testing.TB, edit func([]byte) []byte) ([]byte, error) {
	t.Helper()
	train, held := fixture(t, 120, 4, 600, 7)
	fabric, err := transport.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	var frame []byte
	conns := fabric.Endpoints()
	conns[0] = &deployTap{Conn: conns[0], edit: func(b []byte) []byte {
		frame = append([]byte(nil), b...)
		return edit(b)
	}}
	_, err = RunOnTransport(core.DefaultConfig(4, 23), train, held, Options{Iterations: 1}, conns)
	if frame == nil {
		t.Fatal("rank 0 scattered no deployment to rank 1")
	}
	return frame, err
}

// TestCorruptDeploymentAbortsRun: a worker handed a deployment frame that
// does not parse fails its deploy stage with the typed error, and the abort
// it raises ends the run with that error, naming the rank.
func TestCorruptDeploymentAbortsRun(t *testing.T) {
	_, err := tapDeployment(t, func([]byte) []byte { return []byte{0, 0, 0, 0, 1, 0, 0, 0} })
	var de *DeploymentError
	if !errors.As(err, &de) || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("run error = %v, want rank 1's *DeploymentError", err)
	}
}

// TestRankFailureAbortsRunInproc is the acceptance test for the abort
// layer on the in-process fabric: a rank forced to fail at iteration N must
// make RunOnTransport return a non-nil error naming that rank within
// bounded time, with every peer released from its collectives and DKV
// receives.
func TestRankFailureAbortsRunInproc(t *testing.T) {
	train, held := fixture(t, 180, 4, 900, 91)
	cfg := core.DefaultConfig(4, 17)

	for _, failRank := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("rank%d", failRank), func(t *testing.T) {
			fabric, err := transport.NewFabric(3)
			if err != nil {
				t.Fatal(err)
			}
			defer fabric.Close()
			_, err = runWithTimeout(t, 60*time.Second, func() (*Result, error) {
				return RunOnTransport(cfg, train, held, Options{
					Iterations: 6,
					EvalEvery:  2,
					FaultHook:  failAt(failRank, 3),
				}, fabric.Endpoints())
			})
			if err == nil {
				t.Fatal("run with failing rank returned nil error")
			}
			want := fmt.Sprintf("rank %d", failRank)
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name the failing %s", err, want)
			}
			if !strings.Contains(err.Error(), "iteration 3") {
				t.Fatalf("error %q does not name the failing iteration", err)
			}
		})
	}
}

// TestRankFailureAbortsRunPipelined covers the harder schedule: with the
// double-buffered pipeline and prefetch goroutines in flight, a mid-run
// failure must still unwind every rank.
func TestRankFailureAbortsRunPipelined(t *testing.T) {
	train, held := fixture(t, 180, 4, 900, 91)
	cfg := core.DefaultConfig(4, 17)
	fabric, err := transport.NewFabric(4)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	_, err = runWithTimeout(t, 60*time.Second, func() (*Result, error) {
		return RunOnTransport(cfg, train, held, Options{
			Iterations: 8,
			Pipeline:   true,
			FaultHook:  failAt(2, 4),
		}, fabric.Endpoints())
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("pipelined run error = %v, want one naming rank 2", err)
	}
}

// TestRankFailureAbortsRunTCP is the same acceptance property over a real
// TCP mesh: the abort control frames must cross sockets and release every
// peer process's receives.
func TestRankFailureAbortsRunTCP(t *testing.T) {
	train, held := fixture(t, 180, 4, 900, 91)
	cfg := core.DefaultConfig(4, 17)
	const ranks = 3

	conns := dialTestMesh(t, ranks)

	_, err := runWithTimeout(t, 60*time.Second, func() (*Result, error) {
		return RunOnTransport(cfg, train, held, Options{
			Iterations: 6,
			FaultHook:  failAt(1, 2),
		}, conns)
	})
	if err == nil {
		t.Fatal("TCP run with failing rank returned nil error")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("TCP run error %q does not name rank 1", err)
	}
}

// TestFailureAtFirstIteration exercises the earliest possible failure —
// before the first collective of the loop — where the init barrier has
// already completed.
func TestFailureAtFirstIteration(t *testing.T) {
	train, held := fixture(t, 120, 4, 600, 7)
	cfg := core.DefaultConfig(4, 23)
	_, err := runWithTimeout(t, 60*time.Second, func() (*Result, error) {
		return Run(cfg, train, held, Options{
			Ranks:      3,
			Iterations: 4,
			FaultHook:  failAt(2, 0),
		})
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("error = %v, want one naming rank 2", err)
	}
}

// TestAbortErrorTypeSurfaces: the returned error chain must expose the
// typed abort so callers can distinguish a cluster failure from a local
// configuration error programmatically.
func TestAbortErrorTypeSurfaces(t *testing.T) {
	train, held := fixture(t, 120, 4, 600, 7)
	cfg := core.DefaultConfig(4, 23)
	fabric, err := transport.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()

	// Fail rank 1; rank 0's error must either be the root cause (if rank 0
	// is the failer) or wrap an AbortError naming rank 1. Run's contract is
	// that the root cause wins when it is in-process, so here the injected
	// error itself must surface.
	injected := errors.New("disk on fire")
	_, err = runWithTimeout(t, 60*time.Second, func() (*Result, error) {
		return RunOnTransport(cfg, train, held, Options{
			Iterations: 4,
			FaultHook: func(r, it int) error {
				if r == 1 && it == 1 {
					return injected
				}
				return nil
			},
		}, fabric.Endpoints())
	})
	if !errors.Is(err, injected) {
		t.Fatalf("error chain %v does not preserve the injected cause", err)
	}
}

// TestFaultHookNilAndBenign: a hook that never fires must not perturb the
// run — same result as no hook at all (the hook sits outside the seeded
// RNG streams).
func TestFaultHookNilAndBenign(t *testing.T) {
	train, held := fixture(t, 120, 4, 600, 7)
	cfg := core.DefaultConfig(4, 23)
	base, err := Run(cfg, train, held, Options{Ranks: 2, Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := Run(cfg, train, held, Options{
		Ranks: 2, Iterations: 4,
		FaultHook: func(r, it int) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.State.Pi {
		if base.State.Pi[i] != hooked.State.Pi[i] {
			t.Fatalf("benign hook changed π at %d", i)
		}
	}
}
