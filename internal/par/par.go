// Package par is the one worker pool: a persistent pool that splits index
// ranges across GOMAXPROCS workers with zero goroutine spawns per
// operation. A training or evaluation pass dispatches its batch's row
// chunks onto it (internal/nn/chain.go), and the trace generator its
// series; no kernel under a pass dispatches.
//
// Determinism contract: the chunk boundaries of Run/RunChunks depend only
// on the range length and the grain — never on the worker count or on
// scheduling. Kernels that reduce floating-point partials therefore
// accumulate one partial per chunk and fold them in chunk-index order,
// which makes results bitwise identical whether the pool has 1 worker or
// 64. Worker count only decides which goroutine computes a chunk, not
// what arithmetic is performed.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// defaultChunksPerRun is how many chunks Run carves a range into. It is a
// fixed constant (not a function of the worker count) so that chunk
// boundaries — and hence any per-chunk floating-point partials — are
// identical across pool sizes. 32 chunks keeps the per-chunk claim cost
// (one atomic add) negligible while still load-balancing uneven chunks
// across up to 32 workers.
const defaultChunksPerRun = 32

// task is one Run invocation: a range, a grain, and an atomically claimed
// chunk cursor shared by every goroutine that helps execute it. Tasks are
// pooled and reference-counted so steady-state dispatch allocates nothing:
// the submitter holds one reference, each successful hand-off to a helper
// adds one, and the last goroutine to release returns the task to the pool.
type task struct {
	fn      func(chunk, lo, hi int)
	fnRange func(lo, hi int) // used by RunGrain; avoids a wrapper closure
	n       int
	grain   int
	chunks  int

	next    atomic.Int64  // next chunk index to claim
	pending atomic.Int64  // chunks not yet completed
	refs    atomic.Int64  // goroutines still holding this task
	done    chan struct{} // buffered(1) so the task is reusable after receive

	panicked atomic.Bool
	panicVal any
}

var taskPool = sync.Pool{New: func() any {
	return &task{done: make(chan struct{}, 1)}
}}

func getTask() *task { return taskPool.Get().(*task) }

// release drops one reference; the last holder clears the task and returns
// it to the pool. Callers must not touch the task after releasing.
func (t *task) release() {
	if t.refs.Add(-1) == 0 {
		t.fn, t.fnRange = nil, nil
		t.panicVal = nil
		t.panicked.Store(false)
		t.next.Store(0)
		taskPool.Put(t)
	}
}

// process claims and executes chunks until none remain. It is called by
// pool workers and by the submitting goroutine alike.
func (t *task) process() {
	for {
		c := int(t.next.Add(1)) - 1
		if c >= t.chunks {
			return
		}
		t.runChunk(c)
	}
}

func (t *task) runChunk(c int) {
	defer func() {
		if r := recover(); r != nil {
			// First panic wins; panicVal is published to the submitter by
			// the pending-counter release chain followed by the done send.
			if t.panicked.CompareAndSwap(false, true) {
				t.panicVal = r
			}
		}
		if t.pending.Add(-1) == 0 {
			t.done <- struct{}{}
		}
	}()
	lo := c * t.grain
	hi := lo + t.grain
	if hi > t.n {
		hi = t.n
	}
	if t.fnRange != nil {
		t.fnRange(lo, hi)
	} else {
		t.fn(c, lo, hi)
	}
}

// Pool is a persistent set of worker goroutines executing tasks. The
// submitting goroutine always participates in its own task, so a Pool with
// W workers runs W-1 helper goroutines.
//
// A Run or RunChunks issued while the pool already has a task in flight —
// from inside one of its chunks, or from another goroutine — runs inline
// on its caller, with the same chunk boundaries, so its results are
// unchanged and it never hands work to a helper that is busy with the
// first task. Parallelism lives at the outermost dispatch, a pass's row
// chunks; the kernels below it do not dispatch at all.
//
// A helper that has finished a task stays awake for spinFor, polling for
// the next one, before it parks (see nextTask).
type Pool struct {
	workers  int
	work     chan *task
	wg       sync.WaitGroup
	closed   atomic.Bool
	inFlight atomic.Int32
}

// NewPool creates a pool that runs tasks on up to workers goroutines
// (including the submitter). workers < 1 is treated as 1; a 1-worker pool
// spawns no goroutines and runs everything inline.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, work: make(chan *task, workers)}
	for i := 0; i < workers-1; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				t, ok := p.nextTask()
				if !ok {
					return
				}
				t.process()
				t.release()
			}
		}()
	}
	return p
}

// spinFor is how long an idle helper keeps polling for work before it
// parks. A parked helper took 73 µs on average to join a task on the
// 2-vCPU benchmark host (its virtual CPU has to be woken), a sixth of a
// training step's forward; the dispatches of one step come a few µs to
// ~150 µs apart (Adam and the next batch's gather sit between steps).
const spinFor = 200 * time.Microsecond

// nextTask returns the next task handed to the pool, false once it is
// closed. It polls for spinFor, yielding the processor between polls so
// that any other runnable goroutine goes first, then blocks.
func (p *Pool) nextTask() (*task, bool) {
	for deadline := time.Now().Add(spinFor); time.Now().Before(deadline); {
		select {
		case t, ok := <-p.work:
			return t, ok
		default:
			runtime.Gosched()
		}
	}
	t, ok := <-p.work
	return t, ok
}

// Close shuts the helper goroutines down and waits for them to exit. It
// must not be called concurrently with Run; calling Run after Close runs
// the work inline on the caller.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.work)
	p.wg.Wait()
}

// Run splits [0,n) into chunks and executes fn over them, blocking until
// every chunk completes. fn must write to disjoint outputs for distinct
// index ranges. Chunk boundaries depend only on n (see the package
// determinism contract). A panic in any chunk is re-raised on the caller
// after the remaining chunks finish.
func (p *Pool) Run(n int, fn func(lo, hi int)) {
	grain := (n + defaultChunksPerRun - 1) / defaultChunksPerRun
	if grain < 1 {
		grain = 1
	}
	p.RunGrain(n, grain, fn)
}

// RunGrain is Run with a caller-chosen chunk size.
func (p *Pool) RunGrain(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if p.inline(n <= grain) {
		// Run/RunGrain kernels never see chunk boundaries (no chunk index),
		// so the no-parallelism path covers the range in one call instead of
		// chunks-many — sparing kernels that pay a fixed cost per call (e.g.
		// a matrix re-traversal per column block) from paying it when there
		// is nothing to split for.
		fn(0, n)
		return
	}
	t := getTask()
	t.fnRange = fn
	t.n, t.grain, t.chunks = n, grain, numChunks(n, grain)
	p.dispatch(t)
}

// RunChunks splits [0,n) into numChunks(n, grain) chunks of size grain
// (the last possibly shorter) and calls fn(chunk, lo, hi) for each. The
// chunk index is the deterministic reduction slot: kernels accumulate one
// partial per chunk and fold partials in chunk order after RunChunks
// returns.
func (p *Pool) RunChunks(n, grain int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := numChunks(n, grain)
	if p.inline(chunks == 1) {
		// Inline path: same chunk boundaries, zero scheduling.
		runInline(n, grain, chunks, fn)
		return
	}
	t := getTask()
	t.fn = fn
	t.n, t.grain, t.chunks = n, grain, chunks
	p.dispatch(t)
}

// inline reports whether a range runs on the caller alone: when it is one
// chunk, when the pool has one worker or is closed, and when the pool
// already has a task in flight (see Pool).
func (p *Pool) inline(oneChunk bool) bool {
	return oneChunk || p.workers == 1 || p.closed.Load() || p.inFlight.Load() > 0
}

// dispatch runs a prepared task on the pool: it wakes helpers, has the
// submitter participate, waits for completion, and recycles the task.
func (p *Pool) dispatch(t *task) {
	p.inFlight.Add(1)
	defer p.inFlight.Add(-1)
	t.pending.Store(int64(t.chunks))
	t.refs.Store(1)
	// Wake up to workers-1 helpers; non-blocking so a busy pool (two
	// submitters that both found it idle) degrades to the submitter doing
	// more of the work instead of deadlocking. Each successful hand-off
	// takes a reference BEFORE the send so a fast helper can never drop
	// the count to zero while the submitter still holds the task.
wake:
	for i := 0; i < p.workers-1 && i < t.chunks-1; i++ {
		t.refs.Add(1)
		select {
		case p.work <- t:
		default:
			t.refs.Add(-1)
			break wake // channel full; helpers are busy
		}
	}
	t.process()
	<-t.done
	pv := t.panicVal
	t.release()
	if pv != nil {
		panic(fmt.Sprintf("par: worker panic: %v", pv))
	}
}

func runInline(n, grain, chunks int, fn func(chunk, lo, hi int)) {
	var panicVal any
	for c := 0; c < chunks; c++ {
		lo := c * grain
		hi := lo + grain
		if hi > n {
			hi = n
		}
		func() {
			defer func() {
				if r := recover(); r != nil && panicVal == nil {
					panicVal = r
				}
			}()
			fn(c, lo, hi)
		}()
	}
	if panicVal != nil {
		panic(fmt.Sprintf("par: worker panic: %v", panicVal))
	}
}

// numChunks returns the number of chunks RunChunks uses for a range of n
// elements at the given grain.
func numChunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

var (
	defaultMu   sync.Mutex
	defaultPool *Pool
)

// Default returns the process-wide pool, creating it sized to
// runtime.GOMAXPROCS(0) on first use.
func Default() *Pool {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultPool == nil {
		defaultPool = NewPool(runtime.GOMAXPROCS(0))
	}
	return defaultPool
}

// SetWorkers replaces the default pool with one of the given size and
// returns the previous size. It exists for tests (the determinism suite
// compares 1-worker and N-worker runs in-process) and for callers that
// want to cap kernel parallelism below GOMAXPROCS. It must not race with
// in-flight Run calls.
func SetWorkers(n int) int {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	prev := runtime.GOMAXPROCS(0)
	if defaultPool != nil {
		prev = defaultPool.workers
		defaultPool.Close()
	}
	defaultPool = NewPool(n)
	return prev
}

// Run executes fn over [0,n) on the default pool. See (*Pool).Run.
func Run(n int, fn func(lo, hi int)) { Default().Run(n, fn) }

// RunGrain executes fn over [0,n) in chunks of grain on the default pool.
func RunGrain(n, grain int, fn func(lo, hi int)) { Default().RunGrain(n, grain, fn) }

// RunChunks executes fn over [0,n) in indexed chunks on the default pool.
// See (*Pool).RunChunks.
func RunChunks(n, grain int, fn func(chunk, lo, hi int)) { Default().RunChunks(n, grain, fn) }
