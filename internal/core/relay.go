package core

import "sync"

// PanicRelay carries a panic raised on a worker goroutine back to the
// goroutine that waits for the workers. A recover only covers its own
// goroutine, so without the relay a panic in any worker but the caller
// kills the process, however carefully the caller recovers. Each worker
// defers Catch; the caller calls Rethrow once every worker has
// returned, re-raising the first caught value on its own goroutine.
// The zero value is ready to use.
type PanicRelay struct {
	mu     sync.Mutex
	caught bool
	val    any
}

// Catch recovers a panic in progress and records it (the first one
// wins). It must be deferred directly by the worker body: a recover
// only stops a panic from a deferred call.
func (r *PanicRelay) Catch() {
	if v := recover(); v != nil {
		r.mu.Lock()
		if !r.caught {
			r.caught, r.val = true, v
		}
		r.mu.Unlock()
	}
}

// Rethrow re-raises the first caught panic value on the calling
// goroutine, or returns if no worker panicked. Call it after every
// worker has returned.
func (r *PanicRelay) Rethrow() {
	r.mu.Lock()
	caught, v := r.caught, r.val
	r.mu.Unlock()
	if caught {
		panic(v)
	}
}
