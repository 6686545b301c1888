package par

import (
	"errors"
	"fmt"

	"plum/internal/comm"
)

// RemapFailure classifies why a remap (or finalize) transaction failed.
type RemapFailure int

// The failure classes. Only FailTransfer is produced by injected faults —
// it means the reliable exchange exhausted its per-message attempt budget
// and the window retries, and the transaction rolled back cleanly. The
// structural classes (torn records, broken conservation, double gathers, a
// dead rank) indicate a bug or corruption the retry machinery must never
// paper over, so they abort without retrying.
const (
	// FailTransfer: reliable transfers kept failing after every retry;
	// ownership was rolled back to the pre-remap checkpoint.
	FailTransfer RemapFailure = iota
	// FailConservation: the received element count does not match the
	// number of migrated elements.
	FailConservation
	// FailRank: a rank died mid-exchange (panic converted by comm.World.Run
	// — torn records and window mismatches surface here).
	FailRank
	// FailGather: the finalization gather saw a torn record, an
	// out-of-range element id, or an element gathered twice.
	FailGather
	// FailCrash: one or more ranks died mid-exchange under an injected
	// crash fate (comm.CrashError); ownership was rolled back and the
	// Crashed list names the dead ranks so the caller can run survivor
	// recovery.
	FailCrash
	// FailTimeout: the stage deadline expired with a rank hung outside
	// the communication layer (comm.TimeoutError). The worker pool is
	// torn; this is not retried and not recovered.
	FailTimeout
)

// String names the failure class.
func (f RemapFailure) String() string {
	switch f {
	case FailTransfer:
		return "transfer-failed"
	case FailConservation:
		return "conservation"
	case FailRank:
		return "rank-failure"
	case FailGather:
		return "gather"
	case FailCrash:
		return "rank-crash"
	case FailTimeout:
		return "stage-timeout"
	}
	return fmt.Sprintf("RemapFailure(%d)", int(f))
}

// RemapError is the typed error of the transactional remap path. Callers
// (core.Framework) use Failure and RolledBack to decide between graceful
// degradation — keep the old partition, skip the remap charge, continue
// the cycle — and aborting the run.
type RemapError struct {
	// Failure classifies the fault.
	Failure RemapFailure
	// Window is the canonical index of the window that failed when the
	// executor ran under a streaming budget (ExecuteRemapStreaming), or -1
	// from the whole-payload entry points, the conservation check, and
	// the finalize gather.
	Window int
	// Tries is the number of times the failing window was exchanged.
	Tries int
	// RolledBack reports that the ownership map was restored to its
	// pre-remap state (always true for FailTransfer; structural failures
	// before any window committed also roll back trivially).
	RolledBack bool
	// Crashed names the ranks that died when Failure is FailCrash
	// (sorted ascending); nil otherwise.
	Crashed []int
	// Detail is the underlying diagnostic.
	Detail string
}

// Error implements the error interface.
func (e *RemapError) Error() string {
	s := fmt.Sprintf("par: remap %s", e.Failure)
	if e.Window >= 0 {
		s += fmt.Sprintf(" (window %d", e.Window)
		if e.Tries > 1 {
			s += fmt.Sprintf(", %d tries", e.Tries)
		}
		s += ")"
	} else if e.Tries > 1 {
		s += fmt.Sprintf(" (%d tries)", e.Tries)
	}
	if e.RolledBack {
		s += ", rolled back"
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// remapErrFrom classifies a comm.World.Run error into a rolled-back
// RemapError: modeled rank deaths become FailCrash carrying the dead
// ranks (so core can run survivor recovery), blown stage deadlines
// become FailTimeout, and everything else — genuine rank panics — stays
// the structural FailRank.
func remapErrFrom(err error, window, tries int) *RemapError {
	var ce *comm.CrashError
	if errors.As(err, &ce) {
		return &RemapError{Failure: FailCrash, Window: window, Tries: tries, RolledBack: true,
			Crashed: ce.Ranks, Detail: err.Error()}
	}
	var te *comm.TimeoutError
	if errors.As(err, &te) {
		return &RemapError{Failure: FailTimeout, Window: window, Tries: tries, RolledBack: true, Detail: err.Error()}
	}
	return &RemapError{Failure: FailRank, Window: window, Tries: tries, RolledBack: true, Detail: err.Error()}
}
