package core

import "sync"

// Fork runs work(0), ..., work(p-1) in parallel and returns once every
// call has returned: workers 1..p-1 on goroutines of their own, worker
// 0 on the caller. It is Algorithm 1's p independent workers and its
// terminal barrier, and the one fan-out of the parallel kernels in
// core, kway, psort, setops, spm and batch (make spawn-check holds
// them to it), so a persistent pool would change only this function.
//
// A recover only covers its own goroutine, so a panic in a spawned
// worker would kill the process however carefully the caller
// recovers. Fork therefore recovers in every worker and, once all of
// them have returned, re-raises the first panic value on the caller,
// where a server's per-job recover can see it. p < 1 runs nothing.
func Fork(p int, work func(w int)) {
	if p < 1 {
		return
	}
	var (
		mu     sync.Mutex
		caught bool
		val    any
	)
	catch := func() {
		if v := recover(); v != nil {
			mu.Lock()
			if !caught {
				caught, val = true, v
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	wg.Add(p - 1)
	for w := 1; w < p; w++ {
		go func() {
			defer wg.Done()
			defer catch()
			work(w)
		}()
	}
	func() {
		defer catch()
		work(0)
	}()
	wg.Wait()
	if caught {
		panic(val)
	}
}
