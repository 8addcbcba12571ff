package partalloc_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"partalloc"
)

func TestNewRejectsMeaninglessOptions(t *testing.T) {
	m := partalloc.MustNewMachine(16)
	cases := []struct {
		name string
		algo partalloc.Algorithm
		opts []partalloc.Option
		want string
	}{
		{"d-on-greedy", partalloc.AlgoGreedy, []partalloc.Option{partalloc.WithD(2)}, "WithD"},
		{"d-missing", partalloc.AlgoPeriodic, nil, "WithD is required"},
		{"order-on-basic", partalloc.AlgoBasic, []partalloc.Option{partalloc.WithOrder(partalloc.ArrivalOrder)}, "WithOrder"},
		{"seed-on-constant", partalloc.AlgoConstant, []partalloc.Option{partalloc.WithSeed(3)}, "WithSeed"},
		{"seed-on-periodic", partalloc.AlgoPeriodic, []partalloc.Option{partalloc.WithD(1), partalloc.WithSeed(3)}, "WithSeed"},
		{"faults-on-random", partalloc.AlgoRandom, []partalloc.Option{partalloc.WithFaults(partalloc.FaultSchedule{
			Events: []partalloc.FaultEvent{{At: 0, Kind: partalloc.FailPE, PE: 0}},
		})}, "fault"},
		{"zero-algo", 0, nil, "unknown algorithm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := partalloc.New(tc.algo, m, tc.opts...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New(%v) error = %v, want mention of %q", tc.algo, err, tc.want)
			}
		})
	}
	if _, err := partalloc.New(partalloc.AlgoGreedy, nil); err == nil {
		t.Error("nil machine accepted")
	}
}

func TestNewInvalidFaultScheduleRejected(t *testing.T) {
	m := partalloc.MustNewMachine(4)
	_, err := partalloc.New(partalloc.AlgoBasic, m, partalloc.WithFaults(partalloc.FaultSchedule{
		Events: []partalloc.FaultEvent{{At: 0, Kind: partalloc.FailPE, PE: 9}},
	}))
	if err == nil {
		t.Error("out-of-range fault PE accepted")
	}
}

// TestWithFaultsInjectsSchedule checks that Simulate injects a WithFaults
// schedule with no SimOptions wiring, matching explicit opt.Faults.
func TestWithFaultsInjectsSchedule(t *testing.T) {
	m := partalloc.MustNewMachine(16)
	seq := partalloc.PoissonWorkload(partalloc.WorkloadConfig{N: 16, Arrivals: 300, Seed: 5})
	sched := partalloc.FaultSchedule{Events: []partalloc.FaultEvent{
		{At: 50, Kind: partalloc.FailPE, PE: 3},
		{At: 100, Kind: partalloc.RecoverPE, PE: 3},
	}}

	viaOpt := partalloc.MustNew(partalloc.AlgoPeriodic, m, partalloc.WithD(2), partalloc.WithFaults(sched))
	got := partalloc.Simulate(viaOpt, seq, partalloc.SimOptions{})
	if got.FaultEvents != 2 {
		t.Fatalf("FaultEvents = %d, want 2", got.FaultEvents)
	}

	manual := partalloc.MustNew(partalloc.AlgoPeriodic, m, partalloc.WithD(2))
	want := partalloc.Simulate(manual, seq, partalloc.SimOptions{Faults: sched.Source()})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WithFaults result %+v differs from explicit wiring %+v", got, want)
	}

	// The wrapper must also flow through Execute.
	w := partalloc.RandomSchedWorkload(partalloc.SchedWorkloadConfig{N: 16, Jobs: 60, Seed: 5})
	viaOpt2 := partalloc.MustNew(partalloc.AlgoPeriodic, m, partalloc.WithD(2), partalloc.WithFaults(sched))
	if res := partalloc.Execute(viaOpt2, w); res.FaultEvents != 2 {
		t.Errorf("Execute FaultEvents = %d, want 2", res.FaultEvents)
	}
}

// TestSimulateContextCancellation checks that a cancelled context stops the
// run early with a finalized partial result.
func TestSimulateContextCancellation(t *testing.T) {
	m := partalloc.MustNewMachine(64)
	seq := partalloc.PoissonWorkload(partalloc.WorkloadConfig{N: 64, Arrivals: 5000, Seed: 3})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first event
	res, err := partalloc.SimulateContext(ctx, partalloc.MustNew(partalloc.AlgoGreedy, m), seq, partalloc.SimOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Events != 0 {
		t.Errorf("processed %d events after pre-cancelled context", res.Events)
	}

	// An uncancelled context must match the plain run exactly.
	got, err := partalloc.SimulateContext(context.Background(), partalloc.MustNew(partalloc.AlgoGreedy, m), seq, partalloc.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := partalloc.Simulate(partalloc.MustNew(partalloc.AlgoGreedy, m), seq, partalloc.SimOptions{})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ctx run %+v differs from plain run %+v", got, want)
	}
}

// TestExecuteContextCancellation mirrors the above for the closed-loop
// scheduler.
func TestExecuteContextCancellation(t *testing.T) {
	m := partalloc.MustNewMachine(16)
	w := partalloc.RandomSchedWorkload(partalloc.SchedWorkloadConfig{N: 16, Jobs: 100, Seed: 2})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := partalloc.ExecuteContext(ctx, partalloc.MustNew(partalloc.AlgoGreedy, m), w)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Jobs) != 0 {
		t.Errorf("completed %d jobs after pre-cancelled context", len(res.Jobs))
	}

	got, err := partalloc.ExecuteContext(context.Background(), partalloc.MustNew(partalloc.AlgoGreedy, m), w)
	if err != nil {
		t.Fatal(err)
	}
	want := partalloc.Execute(partalloc.MustNew(partalloc.AlgoGreedy, m), w)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ctx run differs from plain run")
	}
}

func TestAlgorithmStringRoundTrip(t *testing.T) {
	for _, al := range []partalloc.Algorithm{
		partalloc.AlgoGreedy, partalloc.AlgoBasic, partalloc.AlgoConstant,
		partalloc.AlgoPeriodic, partalloc.AlgoLazy, partalloc.AlgoRandom,
		partalloc.AlgoTwoChoice, partalloc.AlgoGreedyRandomTie,
	} {
		got, err := partalloc.ParseAlgorithm(al.String())
		if err != nil || got != al {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", al.String(), got, err)
		}
	}
	if _, err := partalloc.ParseAlgorithm("A_X"); err == nil {
		t.Error("unknown name accepted")
	}
}
