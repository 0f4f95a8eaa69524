package congest

import (
	"errors"
	"fmt"
)

// ErrIncomplete is wrapped by protocol helpers whose run terminated without
// every node reaching the protocol's final state — a flood that did not
// cover the graph within its round bound, or a node that bailed out
// mid-protocol. Such runs must fail rather than return their result
// arrays, whose zero-valued entries would masquerade as legitimate output
// (parent 0, leader 0).
var ErrIncomplete = errors.New("congest: protocol incomplete")

// IncompleteError is the structured form of ErrIncomplete: a protocol run
// terminated without every node reaching the final state — a flood that did
// not cover the graph within its budget, a disagreeing election, a
// convergecast that missed tokens. Retry loops branch on the structured
// fields (which protocol, how far it got, what budget it had) instead of
// parsing error strings; errors.Is(err, ErrIncomplete) still holds through
// Unwrap.
type IncompleteError struct {
	Protocol string // e.g. "BFS", "LeaderElect", "Pipecast"
	Rounds   int    // rounds the run actually took (0 if unknown)
	Budget   int    // round budget the protocol had
	Detail   string // what specifically did not converge
}

func (e *IncompleteError) Error() string {
	msg := fmt.Sprintf("%v: %s did not converge within budget %d", ErrIncomplete, e.Protocol, e.Budget)
	if e.Rounds > 0 {
		msg += fmt.Sprintf(" (ran %d rounds)", e.Rounds)
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

// Unwrap ties the typed error to the ErrIncomplete sentinel.
func (e *IncompleteError) Unwrap() error { return ErrIncomplete }
