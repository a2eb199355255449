// Package sigctx implements the two-stage interrupt contract the CLIs
// share: the FIRST SIGINT/SIGTERM cancels a context — the running
// computation stops cooperatively at its next guard poll and the
// caller salvages the partial result — and a SECOND signal force-exits
// the process immediately for the operator who has decided they do not
// care about salvage. This is the standard ^C UX of well-behaved batch
// tools: one tap asks nicely, two taps mean now.
package sigctx

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// ExitCodeInterrupted is the conventional exit status for a process
// terminated by SIGINT (128 + SIGINT).
const ExitCodeInterrupted = 130

// Install arms the two-stage handler and returns a context that is
// canceled on the first SIGINT/SIGTERM. The second signal calls exit
// (normally os.Exit) with ExitCodeInterrupted without further ceremony.
// notify, when non-nil, is invoked once per signal from the handler
// goroutine — CLIs use it to print "canceling, ^C again to force-quit"
// so the operator knows the first tap registered.
//
// The returned stop func releases the signal registration and the
// goroutine; call it (deferred) once the protected work is done, after
// which signals regain their default process-killing behavior.
func Install(parent context.Context, notify func(second bool), exit func(int)) (ctx context.Context, stop func()) {
	if exit == nil {
		exit = os.Exit
	}
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer signal.Stop(ch)
		select {
		case <-ch:
		case <-done:
			return
		}
		if notify != nil {
			notify(false)
		}
		cancel()
		select {
		case <-ch:
			if notify != nil {
				notify(true)
			}
			exit(ExitCodeInterrupted)
		case <-done:
		}
	}()
	var stopped bool
	return ctx, func() {
		if !stopped {
			stopped = true
			close(done)
			cancel()
		}
	}
}
