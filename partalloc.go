// Package partalloc is a library for on-line processor allocation in
// partitionable (hierarchically decomposable) multiprocessors, reproducing
// "On Trading Task Reallocation for Thread Management in Partitionable
// Multiprocessors" (Gao, Rosenberg, Sitaraman; SPAA 1996).
//
// The model: an N-PE machine shaped as an N-leaf complete binary tree is
// time-shared by users who arrive at unpredictable times, request
// power-of-two submachines, and depart at unpredictable times. Several
// users' tasks may occupy the same PE; a PE's load is the number of
// threads (active tasks) it manages, and the allocator's quality is its
// maximum load relative to the optimal load L* = ⌈s(σ)/N⌉. A
// d-reallocation algorithm may globally migrate tasks once d·N units of
// work have arrived since the last migration — d trades migration traffic
// against thread-management load.
//
// # Algorithms
//
// New builds every algorithm from an Algorithm value and options:
//
//   - AlgoGreedy — A_G: leftmost minimum-load placement, never
//     reallocates; load ≤ ⌈½(log N+1)⌉·L* (Theorem 4.1).
//   - AlgoBasic — A_B: first-fit over copies of the machine; load ≤
//     ⌈S/N⌉ for total arrived size S (Lemma 2).
//   - AlgoConstant — A_C: reallocates on every arrival; load = L*
//     exactly (Theorem 3.1).
//   - AlgoPeriodic with WithD(d) — A_M(d): A_B plus a reallocation
//     (first-fit-decreasing repacking) every d·N arrived units; load ≤
//     min{d+1,⌈½(log N+1)⌉}·L* (Theorem 4.2). No deterministic algorithm
//     beats ⌈½(min{d,log N}+1)⌉·L* (Theorem 4.3).
//   - AlgoLazy with WithD(d) — A_M with on-demand reallocation timing:
//     same guarantee, far less traffic (and it realizes the paper's §2
//     example exactly).
//   - AlgoRandom — A_Rand: oblivious uniform placement; expected load ≤
//     (3·log N/log log N + 1)·L* (Theorem 5.1), and no randomized
//     no-reallocation algorithm beats Ω((log N/log log N)^{1/3}) (Theorem
//     5.2).
//   - AlgoTwoChoice and AlgoGreedyRandomTie — the balanced-allocations
//     baseline and the A_G tie-breaking ablation.
//
// # Quick start
//
//	m := partalloc.MustNewMachine(64)
//	a := partalloc.MustNew(partalloc.AlgoPeriodic, m, partalloc.WithD(2))
//	seq := partalloc.PoissonWorkload(partalloc.WorkloadConfig{N: 64, Arrivals: 500, Seed: 1})
//	res := partalloc.Simulate(a, seq, partalloc.SimOptions{})
//	fmt.Printf("max load %d vs optimal %d (ratio %.2f)\n", res.MaxLoad, res.LStar, res.Ratio)
//
// The subpackages under internal/ hold the implementation; this package is
// the stable surface. Experiment runners that regenerate every artifact in
// the paper live in internal/experiments and are exposed through
// cmd/experiments.
package partalloc

import (
	"context"
	"io"

	"partalloc/internal/adversary"
	"partalloc/internal/core"
	"partalloc/internal/fault"
	"partalloc/internal/mathx"
	"partalloc/internal/sched"
	"partalloc/internal/sim"
	"partalloc/internal/subcube"
	"partalloc/internal/task"
	"partalloc/internal/topology"
	"partalloc/internal/trace"
	"partalloc/internal/tree"
	"partalloc/internal/workload"
)

// Machine is an N-PE tree machine description (immutable).
type Machine = tree.Machine

// Node identifies a submachine by the heap index of its root.
type Node = tree.Node

// NewMachine builds an N-PE machine; N must be a power of two.
func NewMachine(n int) (*Machine, error) { return tree.New(n) }

// MustNewMachine is NewMachine, panicking on error.
func MustNewMachine(n int) *Machine { return tree.MustNew(n) }

// Task is a user request for a power-of-two submachine.
type Task = task.Task

// TaskID identifies a task.
type TaskID = task.ID

// Sequence is a time-ordered series of arrival/departure events.
type Sequence = task.Sequence

// SequenceBuilder builds valid sequences incrementally.
type SequenceBuilder = task.Builder

// NewSequenceBuilder returns an empty builder.
func NewSequenceBuilder() *SequenceBuilder { return task.NewBuilder() }

// Figure1Sequence returns the paper's worked example σ*.
func Figure1Sequence() Sequence { return task.Figure1Sequence() }

// Allocator is the interface all allocation algorithms implement.
type Allocator = core.Allocator

// Reallocator is implemented by allocators that migrate tasks.
type Reallocator = core.Reallocator

// FaultTolerant is implemented by allocators that survive PE failures and
// recoveries (all deterministic algorithms here; the randomized ones are
// oblivious and do not).
type FaultTolerant = core.FaultTolerant

// Migration records one task moved between submachines.
type Migration = core.Migration

// ForcedStats accounts migrations forced by PE failures, separate from the
// voluntary d-reallocation budget.
type ForcedStats = core.ForcedStats

// ReallocStats counts reallocations, migrated tasks and moved PE-units.
type ReallocStats = core.ReallocStats

// ReallocOrder selects the reallocation procedure's packing order.
type ReallocOrder = core.ReallocOrder

// Packing orders for the reallocation procedure A_R.
const (
	// DecreasingSize is the paper's first-fit-decreasing order.
	DecreasingSize = core.DecreasingSize
	// ArrivalOrder packs in task-arrival order (observed to be equally
	// tight on fresh sets; see internal/core tests).
	ArrivalOrder = core.ArrivalOrder
)

// NewTwoChoice returns the balanced-allocations baseline (Azar et al., the
// paper's related work [2]): place each task on the less loaded of two
// uniformly random submachines of its size.
func NewTwoChoice(m *Machine, seed int64) Allocator { return core.NewTwoChoice(m, seed) }

// NewGreedyRandomTie returns the A_G tie-breaking ablation: minimum-load
// placement with uniform-random tie-breaking instead of leftmost. Same
// Theorem 4.1 worst case; measurably worse average-case packing (see
// DESIGN.md §4 and experiment E3).
func NewGreedyRandomTie(m *Machine, seed int64) Allocator { return core.NewGreedyRandomTie(m, seed) }

// SimOptions controls what Simulate records.
type SimOptions = sim.Options

// SimResult is a simulation outcome.
type SimResult = sim.Result

// Simulate drives an allocator through a sequence and measures loads,
// competitive ratio and reallocation cost. An allocator built with
// WithFaults has its schedule injected automatically (unless opt.Faults is
// already set, which wins), and one built with WithTopology runs
// host-aware: SimResult.Topology names the network and
// MigHops/ForcedHops price the migration traffic in physical hops.
func Simulate(a Allocator, seq Sequence, opt SimOptions) SimResult {
	a, opt = resolveRun(a, opt)
	return sim.Run(a, seq, opt)
}

// SimulateContext is Simulate with cooperative cancellation: once ctx is
// cancelled the run stops at the next event boundary and returns the
// measurements accumulated so far (SimResult.Events holds the processed
// count) together with ctx.Err() — the same partial-result shape the sweep
// harness checkpoints on SIGINT.
func SimulateContext(ctx context.Context, a Allocator, seq Sequence, opt SimOptions) (SimResult, error) {
	a, opt = resolveRun(a, opt)
	return sim.RunContext(ctx, a, seq, opt)
}

// resolveRun unwraps a WithFaults/WithTopology allocator into (inner
// allocator, options with the schedule's source and the host attached).
func resolveRun(a Allocator, opt SimOptions) (Allocator, SimOptions) {
	inner, sched, host := unwrapRun(a)
	if sched != nil && opt.Faults == nil {
		opt.Faults = sched.Source()
	}
	if host != nil && opt.Host == nil {
		opt.Host = host
	}
	return inner, opt
}

// WorkloadConfig parameterizes PoissonWorkload.
type WorkloadConfig = workload.Config

// SaturationConfig parameterizes SaturationWorkload.
type SaturationConfig = workload.SaturationConfig

// SessionConfig parameterizes SessionWorkload.
type SessionConfig = workload.SessionConfig

// PoissonWorkload generates Poisson arrivals with i.i.d. service times.
func PoissonWorkload(cfg WorkloadConfig) Sequence { return workload.Poisson(cfg) }

// SaturationWorkload generates a closed-loop near-full workload.
func SaturationWorkload(cfg SaturationConfig) Sequence { return workload.Saturation(cfg) }

// SessionWorkload generates a CM-5-style multi-user session workload.
func SessionWorkload(cfg SessionConfig) Sequence { return workload.Sessions(cfg) }

// AdversaryResult reports a deterministic lower-bound construction run.
type AdversaryResult = adversary.DetResult

// RunAdversary runs the Theorem 4.3 adversary against allocator a assuming
// reallocation parameter d (d < 0 for ∞) and returns the forced loads and
// the constructed sequence.
func RunAdversary(a Allocator, d int) AdversaryResult {
	return adversary.RunDeterministic(a, d)
}

// SigmaRConfig parameterizes the Theorem 5.2 random sequence.
type SigmaRConfig = adversary.SigmaRConfig

// SigmaRStats describes a generated σ_r draw.
type SigmaRStats = adversary.SigmaRStats

// SigmaR generates one draw of the randomized lower-bound sequence σ_r.
func SigmaR(cfg SigmaRConfig) (Sequence, SigmaRStats) { return adversary.SigmaR(cfg) }

// Topology is a physical network with hierarchical decomposition.
type Topology = topology.Machine

// NewTopology builds a named topology: "tree", "hypercube", "mesh",
// "butterfly" or "fattree".
func NewTopology(name string, n int) (Topology, error) { return topology.New(name, n) }

// TopologyNames lists supported topologies.
func TopologyNames() []string { return topology.Names() }

// Host pairs a physical network with its canonical hierarchical binary
// decomposition: allocators run on the decomposition tree (Host.Tree),
// and the host prices migrations in physical hops and translates fault
// targets. WithTopology builds one implicitly; construct one directly to
// inspect a decomposition (PE sets, per-level sibling distances, level
// widths) or to share a tree across allocators. See docs/TOPOLOGIES.md.
type Host = topology.Host

// NewHost builds the decomposition host for a named topology.
func NewHost(name string, n int) (*Host, error) { return topology.NewHostNamed(name, n) }

// MigrationCost prices moving a task between two equal-size submachines on
// a physical topology, in per-PE routed hops.
func MigrationCost(top Topology, m *Machine, from, to Node) int64 {
	return topology.MigrationCost(top, m, from, to)
}

// SchedJob is one unit of executable work for the closed-loop scheduler.
type SchedJob = sched.Job

// SchedWorkload is an arrival-ordered job stream for the scheduler.
type SchedWorkload = sched.Workload

// SchedResult reports a closed-loop execution.
type SchedResult = sched.Result

// SchedWorkloadConfig parameterizes RandomSchedWorkload.
type SchedWorkloadConfig = sched.WorkloadConfig

// RandomSchedWorkload draws a Poisson job stream with exponential work
// requirements for the closed-loop scheduler.
func RandomSchedWorkload(cfg SchedWorkloadConfig) SchedWorkload {
	return sched.RandomWorkload(cfg)
}

// Execute runs jobs to completion under gang-scheduled round-robin
// time-sharing: each job advances at 1/(max load in its submachine), so
// departures — and therefore response times — are determined by the
// allocator's balance. This is the paper's §2 slowdown model, executed.
// An allocator built with WithFaults has its schedule injected, and one
// built with WithTopology reports hop-weighted migration costs
// (SchedResult's Topology/MigHops/ForcedHops fields).
func Execute(a Allocator, w SchedWorkload) SchedResult {
	inner, schedF, host := unwrapRun(a)
	var src FaultSource
	if schedF != nil {
		src = schedF.Source()
	}
	if schedF == nil && host == nil {
		return sched.Run(inner, w)
	}
	return sched.RunHosted(inner, w, nil, src, host)
}

// ExecuteContext is Execute with cooperative cancellation: once ctx is
// cancelled the run stops at the next event boundary and returns the jobs
// completed so far together with ctx.Err().
func ExecuteContext(ctx context.Context, a Allocator, w SchedWorkload) (SchedResult, error) {
	inner, schedF, host := unwrapRun(a)
	var src FaultSource
	if schedF != nil {
		src = schedF.Source()
	}
	return sched.RunHostedContext(ctx, inner, w, nil, src, host)
}

// FaultSource feeds fault events into a run; FaultSchedule.Source returns
// one.
type FaultSource = fault.Source

// SubcubeStrategy selects an exclusive (space-shared) subcube recognition
// scheme on a hypercube: SubcubeBuddy, SubcubeGrayCode (Chen/Shin) or
// SubcubeExhaustive.
type SubcubeStrategy = subcube.Strategy

// Subcube recognition strategies for space-shared allocation.
const (
	SubcubeBuddy      = subcube.Buddy
	SubcubeGrayCode   = subcube.GrayCode
	SubcubeExhaustive = subcube.Exhaustive
)

// SpaceShareJob is one exclusive-use request.
type SpaceShareJob = subcube.Job

// SpaceShareResult reports a space-shared (FCFS-queued) run.
type SpaceShareResult = subcube.QueueResult

// SpaceShare simulates exclusive FCFS subcube allocation on a dim-cube —
// the related-work regime the paper's time-sharing model is contrasted
// against (jobs wait when fragmentation blocks them).
func SpaceShare(dim int, st SubcubeStrategy, jobs []SpaceShareJob) SpaceShareResult {
	return subcube.RunQueue(dim, st, jobs)
}

// RandomSpaceShareJobs draws a Poisson stream of exclusive-use jobs.
func RandomSpaceShareJobs(dim, count int, rate, meanDuration float64, seed int64) []SpaceShareJob {
	return subcube.RandomJobs(dim, count, rate, meanDuration, seed)
}

// SaveSequence writes a sequence as a JSON trace (see internal/trace for
// the schema). label is free-form; n records the machine size the
// sequence was generated for (0 if unknown).
func SaveSequence(w io.Writer, seq Sequence, label string, n int) error {
	return trace.WriteJSON(w, seq, label, n)
}

// LoadSequence reads a JSON trace written by SaveSequence and validates
// it, returning the sequence with its label and machine size.
func LoadSequence(r io.Reader) (Sequence, string, int, error) {
	return trace.ReadJSON(r)
}

// GreedyBound returns ⌈½(log N+1)⌉, the Theorem 4.1 factor.
func GreedyBound(n int) int { return mathx.GreedyBound(n) }

// UpperBound returns min{d+1, ⌈½(log N+1)⌉}, the Theorem 4.2 factor.
func UpperBound(n, d int) int { return mathx.DetUpperFactor(n, d) }

// LowerBound returns ⌈½(min{d, log N}+1)⌉, the Theorem 4.3 factor.
func LowerBound(n, d int) int { return mathx.DetLowerFactor(n, d) }
