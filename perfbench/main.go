// Command perfbench is the engine's end-to-end benchmark: two
// closed-loop clients drive the partalloc.Engine facade through one of
// three seeded workloads, every run is checked against a serial
// simulation, and the last line of standard output is one JSON object
// with the run's metrics. With -trace 1 it instead reports per-layer
// metrics from spans the benchmark records around its calls into the
// engine and, through a decorator, the engine's calls into the
// allocators. README.md lists every metric.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload ingest-rand --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// minCycles is the fewest measured cycles of round kinds a run makes,
// however long its rounds take.
const minCycles = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ingest-rand, realloc-am, durable-skew, or all of them in turn")
	var o options
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated streams")
	fs.IntVar(&o.seconds, "seconds", 10, "measured time per workload")
	fs.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	fs.StringVar(&o.work, "workdir", filepath.Join(".bench_build", "work"), "directory for journals and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	code := 0
	for _, n := range names {
		w, err := generate(n, o.seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		code = max(code, runWorkload(w, o, stdout, stderr))
	}
	return code
}

type options struct {
	seed    int64
	seconds int
	trace   int
	work    string
}

// runWorkload measures one workload and prints its metrics, ending
// with the result line. It returns the exit code.
func runWorkload(w *workload, o options, stdout, stderr io.Writer) int {
	exp, err := simulate(w)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: oracle:", err)
		return 1
	}
	dir := filepath.Join(o.work, fmt.Sprintf("%s-seed%d-pid%d", w.Name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	kinds := []roundKind{plainRound}
	if o.trace == 1 {
		kinds = append(kinds, tracedRound)
		if w.Engine.Obs {
			kinds = append(kinds, noObsRound)
		}
	}
	var l ledger
	// The warm-up round fills caches and grows the heap; it is checked
	// but not measured.
	warm := runRound(w, exp, plainRound, roundDir(dir, 0))
	l.merge(&warm.ledger)
	var rounds []*round
	// Traced rounds fold their spans into st as they finish; only the
	// last round's spans are kept, for the span file.
	var st spanTotals
	var lastSpans []span
	deadline := nowNs() + int64(o.seconds)*int64(time.Second)
	for i := 0; l.failed == 0; i++ {
		if i%len(kinds) == 0 && i >= minCycles*len(kinds) && nowNs() >= deadline {
			break
		}
		r := runRound(w, exp, kinds[i%len(kinds)], roundDir(dir, i+1))
		l.merge(&r.ledger)
		l.check(bytes.Equal(r.canon, warm.canon), "round %d: tenant stats differ from the warm-up round's", i+1)
		rounds = append(rounds, r)
		if r.kind == tracedRound {
			st.add(r.spans)
			lastSpans, r.spans = r.spans, nil
		}
	}

	fmt.Fprintf(stdout, "perfbench %s seed %d: %d tenants, %d events per round, %d clients, %d measured rounds\n",
		w.Name, o.seed, len(w.Tenants), w.totalEvents(), clients, len(rounds))
	var out []metric
	if o.trace == 0 {
		gated, extra := endToEnd(w, byKind(rounds, plainRound), &l)
		printMetrics(stdout, append(gated, extra...))
		out = gated
	} else {
		out = perLayer(w, rounds, &st)
		printMetrics(stdout, out)
		path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, o.seed))
		l.call(writeSpans(path, lastSpans), "write spans", path)
		fmt.Fprintf(stdout, "  spans of the last traced round: %s\n", path)
	}
	for _, m := range out {
		l.check(!math.IsNaN(m.Value) && !math.IsInf(m.Value, 0), "metric %s is %v", m.Name, m.Value)
	}
	for _, e := range l.errs {
		fmt.Fprintln(stdout, "  FAILED:", e)
	}
	printResult(stdout, &l, out)
	if l.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d calls and checks failed\n", w.Name, l.failed, l.attempted)
		return 1
	}
	return 0
}

// printResult writes the result line: correct, attempted and failed
// calls and checks, and the metrics with their units.
func printResult(stdout io.Writer, l *ledger, ms []metric) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{l.failed == 0, l.attempted, l.failed, make(map[string]value, len(ms))}
	for _, m := range ms {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			res.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	b, _ := json.Marshal(res) // finite floats, strings and ints always marshal
	fmt.Fprintln(stdout, string(b))
}
