// Command perfbench is the BIPS serving stack's end-to-end benchmark.
//
// It builds the stack in-process from the constructors cmd/bips-server
// uses (a durable store and analytics engine in a temporary directory,
// server.New, Serve on loopback TCP), then drives it from the same
// process over two connections: one carries the station sessions
// (ingest.hello, then one sequenced presence.batch frame per station
// cycle), the other the users' logins, subscriptions and queries.
//
//	perfbench --workload ingest-fanout --seed 1 --seconds 12 --trace 0
//
// A run generates every input from the seed, measures set-up several
// times, runs a fixed-rate open-loop phase (every request timed from the
// time it was due, not from when it was sent), then a closed-loop phase
// that measures saturated throughput, and finally checks every answer
// and pushed event against the generated moves. It prints a readable
// report, then one JSON line: {"correct", "attempted", "failed",
// "metrics"}. With --trace 1 it instead measures the per-layer metrics
// with decorators around each layer and writes the spans under
// --span-dir. A failed correctness check makes it exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// setupReps is how many set-ups a run measures; setup_s is their
// median.
const setupReps = 9

// config is one invocation.
type config struct {
	wl        workload
	seed      int64
	seconds   float64
	trace     bool
	workDir   string
	spanDir   string
	setupReps int
	// corrupt names one oracle expectation to falsify; the smoke tests
	// use it to prove each correctness check can fail.
	corrupt string
	out     io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ingest-fanout, locate-serve or history-recover")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 12, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workDir := fs.String("work-dir", ".bench_build/work", "directory for the run's data directories")
	spanDir := fs.String("span-dir", ".bench_build/spans", "directory for the traced run's span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		return 2
	}
	cfg := config{
		wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workDir: *workDir, spanDir: *spanDir, setupReps: setupReps, out: stdout,
	}
	res, err := benchmark(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res.jsonLine())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		return 1
	}
	return 0
}

// header prints the run's identity for the report.
func header(w io.Writer, cfg config) {
	wl := cfg.wl
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d NumCPU=%d %s/%s %s\n",
		wl.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())
	fmt.Fprintf(w, "# floor %dx%d grid, %d users, %d stations at %g Hz x %d moves (%.0f moves/s), queries %.0f/s, history %d moves/device, window %d/conn\n",
		wl.cols, wl.rows, wl.devices, wl.stations, wl.stationHz, wl.frameSize, wl.deltaRate(), wl.queries.total(), wl.prepVisits, wl.window)
	fmt.Fprintf(w, "# store: durable, default WAL flush (10 ms group commit, no fsync: durable = written to the WAL file)\n")
}
