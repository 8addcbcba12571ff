package main

import (
	"fmt"
	"sync"

	"partalloc"
)

// expect is a tenant's final state after a serial partalloc.Simulate
// of its stream: the oracle every round is checked against.
type expect struct {
	MaxLoad, Active, LStar int
	Realloc                partalloc.ReallocStats
}

// simulate runs the oracle for every tenant, one worker per client.
func simulate(w *workload) ([]expect, error) {
	out := make([]expect, len(w.Tenants))
	errs := make([]error, len(w.Tenants))
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(w.Tenants); i += clients {
				out[i], errs[i] = simulateOne(w.Tenants[i])
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func simulateOne(t tenantDef) (expect, error) {
	m, err := partalloc.NewMachine(t.N)
	if err != nil {
		return expect{}, err
	}
	a, err := partalloc.New(t.Algo, m, t.options()...)
	if err != nil {
		return expect{}, err
	}
	res := partalloc.Simulate(a, partalloc.Sequence{Events: t.Events}, partalloc.SimOptions{})
	return expect{MaxLoad: a.MaxLoad(), Active: a.Active(), LStar: res.LStar, Realloc: res.Realloc}, nil
}

// ledger counts attempted and failed calls and checks; error_rate is
// failed/attempted.
type ledger struct {
	attempted, failed int64
	errs              []string
}

func (l *ledger) check(ok bool, format string, args ...any) {
	l.attempted++
	if !ok {
		l.failed++
		if len(l.errs) < 8 {
			l.errs = append(l.errs, fmt.Sprintf(format, args...))
		}
	}
}

// call records one call of op (on tenant id, when not empty); the
// message is built only when the call failed.
func (l *ledger) call(err error, op, id string) {
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errs) < 8 {
			l.errs = append(l.errs, fmt.Sprintf("%s %s: %v", op, id, err))
		}
	}
}

func (l *ledger) merge(o *ledger) {
	l.attempted += o.attempted
	l.failed += o.failed
	for _, e := range o.errs {
		if len(l.errs) < 8 {
			l.errs = append(l.errs, e)
		}
	}
}

// verify checks the engine's final tenant states against the oracle
// and returns them in tenant order.
func verify(w *workload, exp []expect, api engineAPI, l *ledger) []partalloc.EngineTenantStats {
	out := make([]partalloc.EngineTenantStats, len(w.Tenants))
	for i, t := range w.Tenants {
		st, err := api.TenantStats(t.ID)
		l.call(err, "TenantStats", t.ID)
		out[i] = st
		l.check(st.Events == int64(len(t.Events)) && st.Queued == 0,
			"%s applied %d of %d events, %d still queued", t.ID, st.Events, len(t.Events), st.Queued)
		e := exp[i]
		got := expect{MaxLoad: st.MaxLoad, Active: st.Active, LStar: st.LStar, Realloc: st.Realloc}
		l.check(got == e, "%s final state %+v, serial Simulate gives %+v", t.ID, got, e)
	}
	rb := api.RebalanceStats()
	l.check(len(rb.Violations) == 0, "placement invariant violations: %v", rb.Violations)
	return out
}

// canonical concatenates the canonical form of every tenant's stats.
func canonical(sts []partalloc.EngineTenantStats) []byte {
	var b []byte
	for _, st := range sts {
		b = append(b, partalloc.CanonicalEngineStats(st)...)
		b = append(b, '\n')
	}
	return b
}
