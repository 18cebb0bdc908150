package capacity

import (
	"errors"
	"fmt"

	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// Analysis is a chain analysis compiled once and evaluated at many
// periods. Compiling validates the chain structure, fixes the propagation
// direction and resolves every per-buffer task reference, so that At pays
// only for the period-dependent arithmetic of §4.3/§4.4 and Equations
// (1)–(4) — the same compile-once/probe-many split sim.Compile gives the
// simulator. An Analysis never mutates the graph it was compiled from;
// mutating that graph after compiling invalidates the Analysis.
//
// At is a pure function of the period, so one Analysis may be shared by
// any number of goroutines. Curve compiles it further, into the closed
// form in the period that sweeps evaluate.
type Analysis struct {
	graph     *taskgraph.Graph
	task      string
	policy    Policy
	direction Direction
	tasks     []*taskgraph.Task   // chain order, source to sink
	buffers   []*taskgraph.Buffer // chain order
	prod      []*taskgraph.Task   // per buffer: producing task
	cons      []*taskgraph.Task   // per buffer: consuming task
}

// CompileAnalysis validates g as a chain with the constrained task at an
// endpoint and returns the reusable Analysis for probing periods under
// policy p.
func CompileAnalysis(g *taskgraph.Graph, task string, p Policy) (*Analysis, error) {
	if g.Task(task) == nil {
		return nil, fmt.Errorf("taskgraph: constraint on unknown task %q", task)
	}
	tasks, buffers, err := g.Chain()
	if err != nil {
		return nil, err
	}
	if task != tasks[0].Name && task != tasks[len(tasks)-1].Name {
		return nil, fmt.Errorf("taskgraph: constrained task %q must be the chain's source %q or sink %q",
			task, tasks[0].Name, tasks[len(tasks)-1].Name)
	}
	a := &Analysis{
		graph:   g,
		task:    task,
		policy:  p,
		tasks:   tasks,
		buffers: buffers,
		prod:    make([]*taskgraph.Task, len(buffers)),
		cons:    make([]*taskgraph.Task, len(buffers)),
	}
	if task == tasks[len(tasks)-1].Name {
		a.direction = SinkConstrained
	} else {
		a.direction = SourceConstrained
	}
	for i, b := range buffers {
		a.prod[i] = g.Task(b.Producer)
		a.cons[i] = g.Task(b.Consumer)
	}
	return a, nil
}

// Task returns the constrained task the analysis was compiled for.
func (a *Analysis) Task() string { return a.task }

// Policy returns the capacity policy in force.
func (a *Analysis) Policy() Policy { return a.policy }

// Direction returns the propagation direction fixed at compile time.
func (a *Analysis) Direction() Direction { return a.direction }

// OverflowError reports that analysing a chain at a period exceeded the
// exact int64 arithmetic of internal/ratio. It wraps the *ratio.OverflowError
// that tripped, so errors.As finds either type.
type OverflowError struct {
	// Period is the period whose evaluation overflowed.
	Period ratio.Rat
	// Err is the underlying arithmetic overflow.
	Err *ratio.OverflowError
}

func (e *OverflowError) Error() string {
	return "capacity: exact arithmetic exceeds int64 (" + e.Err.Error() + ")"
}

func (e *OverflowError) Unwrap() error { return e.Err }

// overflowFrom converts a recovered *ratio.OverflowError panic — the way
// the ratio arithmetic methods report overflow — into an *OverflowError
// for period tau; any other panic value is re-raised.
func overflowFrom(tau ratio.Rat, r any) error {
	oe, ok := r.(*ratio.OverflowError)
	if !ok {
		panic(r)
	}
	return &OverflowError{Period: tau, Err: oe}
}

// periodError is the error every evaluation reports for a non-positive
// period.
func periodError(tau ratio.Rat) error {
	return fmt.Errorf("taskgraph: constraint period must be positive, got %v", tau)
}

// IsOverflow reports whether err stems from exceeding the exact int64
// arithmetic range.
func IsOverflow(err error) bool {
	var oe *ratio.OverflowError
	return errors.As(err, &oe)
}

// At evaluates the compiled analysis at period tau. The Result is
// identical to Compute on the same graph, constraint and policy. A period
// whose exact evaluation exceeds int64 yields an *OverflowError instead of
// a panic.
func (a *Analysis) At(tau ratio.Rat) (res *Result, err error) {
	if tau.Sign() <= 0 {
		return nil, periodError(tau)
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, overflowFrom(tau, r)
		}
	}()
	res = &Result{
		Constraint: taskgraph.Constraint{Task: a.task, Period: tau},
		Direction:  a.direction,
		Policy:     a.policy,
		Phi:        make(map[string]ratio.Rat, len(a.tasks)),
		Valid:      true,
	}
	if err := propagatePhi(res, a.tasks, a.buffers); err != nil {
		return nil, err
	}
	runTaskChecks(res, a.tasks)
	res.Buffers = make([]BufferResult, 0, len(a.buffers))
	var total int64
	for i, b := range a.buffers {
		br, err := computeBuffer(res, b, a.prod[i], a.cons[i], a.policy)
		if err != nil {
			return nil, err
		}
		// The capacities must also sum within int64, so TotalCapacity
		// never wraps.
		total = checkedAdd(total, br.Capacity)
		res.Buffers = append(res.Buffers, br)
	}
	return res, nil
}
