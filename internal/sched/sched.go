//go:build go1.23

// Package sched implements the asynchronous execution model of the paper:
// n deterministic processes take atomic steps on a shared memory, with the
// interleaving chosen by an adversary (the Scheduler), and crash failures
// that permanently stop a process.
//
// Each process runs in a coroutine (an iter.Pull process slot), and every
// shared-memory operation is gated by the central runner: the process
// yields its step request and stays suspended until the scheduler grants
// it the step, which resumes it by a direct coroutine switch. Only the
// granted process runs between grants, so register operations are atomic
// exactly as in the paper's model (§2: "two concurrent accesses to a same
// register never occur"). A runner holds one slot per process and is
// pooled: replay loops reuse its coroutines across runs.
//
// Crashes are scheduler decisions: a process whose step request is answered
// with a crash unwinds its coroutine and never takes another step.
package sched

import (
	"errors"
	"fmt"
	"iter"
)

// Decision is a scheduler's answer: which process takes the next step, and
// whether that process instead crashes (takes no step, now or ever).
// Pid == Halt stops the execution, crashing every remaining process.
type Decision struct {
	Pid   int
	Crash bool
}

// Halt is the Decision.Pid value that stops the execution.
const Halt = -1

// Scheduler chooses the next step among the enabled processes. enabled is
// sorted ascending and non-empty, and valid only during the call (the
// runner reuses its storage). The returned Pid must be an element of
// enabled, or Halt.
type Scheduler interface {
	Next(enabled []int) Decision
}

// ProcFunc is the code of one process. It must perform every shared-memory
// operation through the Proc handle (directly or via a memory binding).
// Returning a non-nil error marks the process as failed in the Result.
type ProcFunc func(p *Proc) error

// Config configures a run.
type Config struct {
	// Scheduler chooses interleavings and crashes. Required.
	Scheduler Scheduler
	// MaxSteps bounds the total number of steps across all processes; the
	// run is aborted (Result.BudgetExceeded) beyond it. 0 means a default
	// of 1<<22.
	MaxSteps int
}

// DefaultMaxSteps is the step budget used when Config.MaxSteps is 0.
const DefaultMaxSteps = 1 << 22

// Result describes a completed execution.
type Result struct {
	// Steps[i] is the number of steps taken by process i.
	Steps []int
	// TotalSteps is the sum of Steps.
	TotalSteps int
	// Crashed[i] reports whether process i was crashed by the adversary.
	Crashed []bool
	// Errs[i] is the error returned by process i (nil for crashed procs).
	Errs []error
	// Decisions is the sequence of scheduler decisions, in order. It is
	// recorded only for the executions Explore replays (and so hands to
	// Instance.Leaf); a plain Run leaves it empty.
	Decisions []Decision
	// EnabledSets[k] is the sorted enabled set presented to the scheduler
	// for Decisions[k]. Like Decisions, it is filled only for explored
	// executions, whose branches the explorer reads from it.
	EnabledSets [][]int
	// Deadlocked reports that at some point every live process was blocked
	// on an unsatisfied StepWhen condition. Remaining processes were
	// crashed to unwind.
	Deadlocked bool
	// BudgetExceeded reports that MaxSteps was hit.
	BudgetExceeded bool

	// enabledArena holds the enabled sets: when the log is recorded, one
	// flat append-only buffer per run backing every EnabledSets slice
	// (instead of one allocation per scheduler decision); otherwise only
	// the current step's set, reset each step.
	enabledArena []int
}

// reset prepares a Result for reuse by runInto, keeping every backing
// array (Steps, Decisions, EnabledSets, the enabled-set arena) so a
// replay loop settles into zero per-run allocations.
func (r *Result) reset(n int) {
	if cap(r.Steps) < n {
		r.Steps = make([]int, n)
		r.Crashed = make([]bool, n)
		r.Errs = make([]error, n)
	} else {
		r.Steps = r.Steps[:n]
		r.Crashed = r.Crashed[:n]
		r.Errs = r.Errs[:n]
		for i := 0; i < n; i++ {
			r.Steps[i] = 0
			r.Crashed[i] = false
			r.Errs[i] = nil
		}
	}
	r.TotalSteps = 0
	r.Decisions = r.Decisions[:0]
	r.EnabledSets = r.EnabledSets[:0]
	r.Deadlocked = false
	r.BudgetExceeded = false
	r.enabledArena = r.enabledArena[:0]
}

// Correct reports whether process i is correct in this execution: it was
// not crashed and returned no error.
func (r *Result) Correct(i int) bool {
	return !r.Crashed[i] && r.Errs[i] == nil
}

// Err returns the first process error, the deadlock error, or the budget
// error, if any.
func (r *Result) Err() error {
	if r.BudgetExceeded {
		return ErrBudget
	}
	if r.Deadlocked {
		return ErrDeadlock
	}
	for i, err := range r.Errs {
		if err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
	}
	return nil
}

var (
	// ErrDeadlock reports that all live processes were blocked on
	// unsatisfiable StepWhen conditions.
	ErrDeadlock = errors.New("sched: deadlock (all live processes blocked)")
	// ErrBudget reports that the step budget was exhausted.
	ErrBudget = errors.New("sched: step budget exceeded")
)

// crashSignal is the panic a crashed process's parked Step raises to
// unwind its coroutine. It never escapes the package: the slot's exec
// recovers it.
type crashSignal struct{}

// Proc is a process's handle onto the runtime. Shared-memory bindings call
// Step (or StepWhen) exactly once per atomic operation.
type Proc struct {
	// ID is the process index in 0..n-1.
	ID int
	// N is the number of processes in the system.
	N int

	s *slot
}

// Step suspends the process until the scheduler grants it its next atomic
// step. If the adversary crashes the process instead, its coroutine
// unwinds (the process function never resumes).
func (p *Proc) Step() { p.StepWhen(nil) }

// StepWhen is Step with an enabling condition: the scheduler will only
// grant the step while ready() holds. It models waiting (e.g. for a
// message or a register change) without unbounded busy-wait polling: the
// process is simply not enabled until the condition is true. StepWhen
// yields ready to the runner, which evaluates it while every process is
// suspended, so it may read shared state without races.
func (p *Proc) StepWhen(ready func() bool) {
	s := p.s
	if !s.yield(ready) || s.crash {
		panic(crashSignal{})
	}
}

// slot is one pooled process coroutine: an iter.Pull coroutine that runs
// the ProcFunc installed for the current run to completion, records how it
// exited, and yields with done set before waiting for the next run.
// Resuming a slot is a direct coroutine switch; the runner and the slots
// never run at the same time.
type slot struct {
	proc  Proc
	next  func() (func() bool, bool)
	stop  func()
	yield func(func() bool) bool

	fn    ProcFunc
	ready func() bool // the parked step's condition; nil: always enabled
	crash bool        // the runner's answer to the parked step: unwind

	done    bool // fn has returned or crashed this run
	crashed bool
	err     error
}

// loop is the slot's coroutine body: one iteration per run.
func (s *slot) loop(yield func(func() bool) bool) {
	s.yield = yield
	for {
		s.exec()
		s.fn, s.done = nil, true
		if !yield(nil) {
			return // closed
		}
	}
}

// exec runs the installed ProcFunc, turning a crash into s.crashed. Any
// other panic propagates to the runner's resume, and so to Run's caller.
func (s *slot) exec() {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(crashSignal); !ok {
				panic(rec)
			}
			s.crashed = true
		}
	}()
	s.err = s.fn(&s.proc)
}

// resume switches to the slot until it parks at its next step or exits.
func (s *slot) resume() { s.ready, _ = s.next() }

// runner is the pool of process slots of one n-process system, one slot
// per pid. Every run leaves each slot waiting at its exit yield, so a
// runner serves any number of same-arity runs; close ends it.
type runner []*slot

func newRunner(n int) runner {
	r := make(runner, n)
	for i := range r {
		s := &slot{proc: Proc{ID: i, N: n}}
		s.proc.s = s
		s.next, s.stop = iter.Pull(s.loop)
		r[i] = s
	}
	return r
}

// close ends every slot's coroutine; a slot still parked inside a step
// unwinds as a crash. It is safe on a nil runner and after a run panicked.
func (r runner) close() {
	for _, s := range r {
		s.stop()
	}
}

// crashAll unwinds every slot still parked inside a step.
func (r runner) crashAll() {
	for _, s := range r {
		if !s.done {
			s.crash = true
			s.resume()
		}
	}
}

// Run executes the processes under the configured scheduler until every
// process has returned, crashed, or the run is aborted (deadlock/budget).
// The returned error is non-nil only for configuration mistakes; execution
// outcomes (including deadlock) are reported in the Result. A panic in a
// process other than a crash re-panics in Run's caller with the same value.
// Run records no decision log (Result.Decisions and EnabledSets stay
// empty), so its allocations do not grow with the number of steps.
func Run(cfg Config, procs []ProcFunc) (*Result, error) {
	r := newRunner(len(procs))
	defer r.close()
	return runInto(cfg, procs, nil, r, false)
}

// runInto is Run on the caller's runner r, which must have len(procs)
// slots, with a reusable Result for replay loops: res is reset and
// reused when non-nil (its contents are valid until the next runInto
// call with the same res). record fills the decision log (Decisions and
// EnabledSets), which only the explorer's replays read. On return,
// error or not, every slot has exited and r is ready for the next run.
func runInto(cfg Config, procs []ProcFunc, res *Result, r runner, record bool) (*Result, error) {
	n := len(procs)
	if n == 0 {
		return nil, errors.New("sched: no processes")
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("sched: nil scheduler")
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	if res == nil {
		res = &Result{}
	}
	res.reset(n)

	for i, s := range r {
		s.fn, s.crash, s.done, s.crashed, s.err = procs[i], false, false, false, nil
		s.resume()
	}
	for {
		// Build the enabled set, in pid order, in the Result's arena.
		// Recording, the arena is append-only: the three-index slice
		// keeps later appends from aliasing this set, and sets already
		// stored in EnabledSets stay valid even if the arena grows (they
		// keep pointing at the old array). Otherwise the arena holds
		// this step's set alone.
		if !record {
			res.enabledArena = res.enabledArena[:0]
		}
		base := len(res.enabledArena)
		live := false
		for pid, s := range r {
			if s.done {
				continue
			}
			live = true
			if s.ready == nil || s.ready() {
				res.enabledArena = append(res.enabledArena, pid)
			}
		}
		if !live {
			break
		}
		enabled := res.enabledArena[base:len(res.enabledArena):len(res.enabledArena)]

		d := Decision{Pid: Halt}
		switch {
		case len(enabled) == 0:
			res.Deadlocked = true
		case res.TotalSteps >= maxSteps:
			res.BudgetExceeded = true
		default:
			d = cfg.Scheduler.Next(enabled)
			if d.Pid != Halt && !contains(enabled, d.Pid) {
				r.crashAll()
				return nil, fmt.Errorf("sched: scheduler chose pid %d not in enabled set %v", d.Pid, enabled)
			}
		}
		if d.Pid == Halt {
			r.crashAll()
			break
		}

		if record {
			res.Decisions = append(res.Decisions, d)
			res.EnabledSets = append(res.EnabledSets, enabled)
		}
		s := r[d.Pid]
		if d.Crash {
			s.crash = true
		} else {
			res.Steps[d.Pid]++
			res.TotalSteps++
		}
		s.resume()
	}
	for pid, s := range r {
		res.Crashed[pid], res.Errs[pid] = s.crashed, s.err
	}
	return res, nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
