// Package releasefix seeds releasecheck violations: admission
// acquisitions leaked on some path, plus the allowed patterns (defers,
// all-paths releases, wrappers and the //lint:allow escape hatch).
// Handle escapes are seeded in spillfix.
package releasefix

import (
	"context"
	"errors"

	"repro/internal/admission"
)

func work() {}

func leakNoRelease(g *admission.Gate) error {
	if err := g.Acquire(nil, "s", 64); err != nil { // want `admission.Acquire is not released on every path`
		return err
	}
	work()
	return nil
}

func leakEarlyReturn(g *admission.Gate, fail bool) error {
	if err := g.Acquire(nil, "s", 64); err != nil { // want `admission.Acquire is not released on every path`
		return err
	}
	if fail {
		return errors.New("early exit skips the release")
	}
	g.Release("s", 64)
	return nil
}

func leakOnPanic(g *admission.Gate, n int64) {
	if err := g.Acquire(nil, "s", n); err != nil { // want `admission.Acquire is not released on every path`
		return
	}
	if n > 1<<40 {
		panic("absurd request")
	}
	g.Release("s", n)
}

func leakDiscardedError(g *admission.Gate) {
	_ = g.Acquire(nil, "s", 8) // want `admission.Acquire is not released on every path`
}

// --- allowed patterns ---

func okDeferred(g *admission.Gate, n int64) error {
	if err := g.Acquire(nil, "s", n); err != nil {
		return err
	}
	defer g.Release("s", n)
	work()
	return nil
}

func okDeferredClosure(g *admission.Gate) error {
	if err := g.Acquire(nil, "s", 8); err != nil {
		return err
	}
	defer func() {
		work()
		g.Release("s", 8)
	}()
	work()
	return nil
}

func okBothBranches(g *admission.Gate, flag bool) error {
	if err := g.Acquire(nil, "s", 8); err != nil {
		return err
	}
	if flag {
		g.Release("s", 8)
		return nil
	}
	g.Release("s", 8)
	return nil
}

func okWrapper(ctx context.Context, g *admission.Gate) error {
	return g.Acquire(ctx, "wrapped", 8) // the caller owns the release
}

func okAllowed(g *admission.Gate) error {
	if err := g.Acquire(nil, "s", 8); err != nil { //lint:allow releasecheck a teardown elsewhere pairs this acquisition (fixture)
		return err
	}
	work()
	return nil
}
