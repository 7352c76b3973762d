// Command notarybench is the end-to-end benchmark of the tlsage notary. It
// generates seeded inputs in memory, runs one workload against the program
// inside its own process (servers on loopback, at most two client
// connections), checks every answer against its own tally of the generated
// records, and prints one JSON result line:
//
//	notarybench --workload dashboard --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the workload runs with spans around every call into the program and the
// result carries the per-layer metrics instead (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// runLimit bounds a whole run, set-up included. The benchmark must exit by
// itself well inside three minutes even when the program under test hangs.
const runLimit = 160 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("notarybench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for temporary files and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "notarybench: unknown workload %q or bad --seconds (workloads: %s)\n", *name, workloadNames())
		return 2
	}
	cfg := defaultConfig()
	cfg.seed = *seed
	cfg.measure = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "notarybench: %v\n", err)
		return 1
	}
	e, err := newEnv(*out, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "notarybench: %v\n", err)
		return 1
	}
	// The overall deadline closes every server, pusher and temp directory
	// and exits without a result, whatever the workload is blocked on.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "notarybench: run exceeded %v; aborting\n", runLimit)
		e.abort()
		os.Exit(3)
	})
	defer watchdog.Stop()
	// So does an interrupt or a termination request.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if s, ok := <-sigs; ok {
			fmt.Fprintf(os.Stderr, "notarybench: %v; aborting\n", s)
			e.abort()
			os.Exit(3)
		}
	}()

	res, err := runWorkload(e, wl, cfg)
	if cerr := e.close(); cerr != nil && err == nil {
		err = cerr
	}
	if cfg.trace {
		if path, werr := e.tr.writeFile(filepath.Join(*out, "trace"), *name, cfg.seed); werr != nil {
			fmt.Fprintf(os.Stderr, "notarybench: writing trace: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
		}
	}
	var ce *checkError
	switch {
	case errors.As(err, &ce):
		fmt.Fprintf(os.Stderr, "notarybench: CHECK FAILED: %v\n", err)
		res.Correct = false
		printResult(res)
		return 1
	case err != nil:
		fmt.Fprintf(os.Stderr, "notarybench: %v\n", err)
		return 1
	}
	printResult(res)
	return 0
}

// runWorkload runs one workload and turns a panic into an error, so the
// caller still closes everything the workload opened.
func runWorkload(e *env, wl workload, cfg config) (res result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return measureWorkload(e, wl, cfg)
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "notarybench: encoding result: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
