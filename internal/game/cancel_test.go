package game

import (
	"errors"
	"testing"
	"time"

	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// TestCancelPreClosed pins the fast path: a cancel hook that has already
// fired aborts the solve at the first budget checkpoint, for a pool of one
// worker and of two, with the typed ErrCanceled (distinct from resource
// exhaustion).
func TestCancelPreClosed(t *testing.T) {
	s := oneStep()
	f := tctl.MustParse(mkEnv(s), "control: A<> P.Goal")
	for _, workers := range []int{1, 2} {
		_, err := Solve(s, f, Options{Workers: workers, Cancel: closedChan()})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: want ErrCanceled, got %v", workers, err)
		}
	}
	if errors.Is(ErrCanceled, ErrBudget) || errors.Is(ErrBudget, ErrCanceled) {
		t.Fatal("ErrCanceled and ErrBudget must stay distinct error identities")
	}
}

// TestCancelMidSolve fires the hook while a solve that takes tens of
// milliseconds is in flight: the solver must notice at a checkpoint and
// abort with ErrCanceled instead of running to completion.
func TestCancelMidSolve(t *testing.T) {
	sys, env, _, goal, err := models.ByName("lep", 4)
	if err != nil {
		t.Fatal(err)
	}
	f := tctl.MustParse(env, goal)
	cancel := make(chan struct{})
	timer := time.AfterFunc(5*time.Millisecond, func() { close(cancel) })
	defer timer.Stop()
	if _, err := Solve(sys, f, Options{Cancel: cancel}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestBatchCancelThenReuse pins the property the service layer depends on:
// a canceled batch solve leaves no partial skeleton or overlay behind, so
// clearing the hook and re-issuing the identical solve succeeds from
// scratch on the same Batch.
func TestBatchCancelThenReuse(t *testing.T) {
	sys := models.SmartLight()
	env := models.SmartLightEnv(sys)
	f := tctl.MustParse(env, "control: A<> IUT.Bright")
	b, err := NewBatch(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b.SetCancel(closedChan())
	if _, err := b.Solve(f, false); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled batch solve: want ErrCanceled, got %v", err)
	}
	if len(b.graphs) != 0 {
		t.Fatalf("canceled exploration must not be cached as a skeleton, got %d", len(b.graphs))
	}
	b.SetCancel(nil)
	res, err := b.Solve(f, false)
	if err != nil {
		t.Fatalf("post-cancel solve on the same batch: %v", err)
	}
	if !res.Winnable {
		t.Fatal("post-cancel solve must win as usual")
	}
}
