package par

import "fmt"

// RemapFailure classifies why a remap transaction failed.
type RemapFailure int

// The failure classes. Both are produced by injected faults, and both
// leave the ownership at its pre-remap state.
const (
	// FailTransfer: transfers kept failing after every retry; the
	// exchange exhausted its per-message attempt budget and the window
	// retries.
	FailTransfer RemapFailure = iota
	// FailCrash: one or more ranks died at the remap boundary under an
	// injected crash fate; the Crashed list names the dead ranks so the
	// caller can run survivor recovery.
	FailCrash
)

// String names the failure class.
func (f RemapFailure) String() string {
	switch f {
	case FailTransfer:
		return "transfer-failed"
	case FailCrash:
		return "rank-crash"
	}
	return fmt.Sprintf("RemapFailure(%d)", int(f))
}

// RemapError is the typed error of the transactional remap path. The
// executor writes ownership once, after the last window is delivered, so
// every RemapError leaves the ownership map as it was before the remap.
// Callers (core.Framework) use Failure to decide between graceful
// degradation — keep the old partition, skip the remap charge, continue
// the cycle — and survivor recovery.
type RemapError struct {
	// Failure classifies the fault.
	Failure RemapFailure
	// Window is the canonical index of the window that failed.
	Window int
	// Tries is the number of times the failing window was exchanged.
	Tries int
	// Crashed names the ranks that died when Failure is FailCrash
	// (sorted ascending); nil otherwise.
	Crashed []int
	// Detail is the underlying diagnostic.
	Detail string
}

// Error implements the error interface.
func (e *RemapError) Error() string {
	s := fmt.Sprintf("par: remap %s (window %d", e.Failure, e.Window)
	if e.Tries > 1 {
		s += fmt.Sprintf(", %d tries", e.Tries)
	}
	s += "), rolled back"
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}
