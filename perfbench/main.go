// Command perfbench is the repository benchmark. It drives the RAID-6
// engine end to end from one process — file-backed columns, raid.Array,
// blockserve.Server and blockdev.Remote clients — through public calls
// only, timing them with its own clocks. README.md describes the workloads
// and every metric; run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload net-mixed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// traced run. --workload all runs every workload in turn. The exit status
// is 0 only when every output check passed and no operation failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	workloadName := flag.String("workload", "", "workload: net-mixed, degraded-read, disk-rebuild, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	traceMode := flag.Int("trace", 0, "1: a traced run reporting per-layer metrics; 0: end-to-end metrics")
	dataDir := flag.String("data", ".bench_build/data", "directory for the column files")
	outDir := flag.String("out", ".bench_build/results", "directory for result and span files")
	flag.Parse()
	if *traceMode != 0 && *traceMode != 1 {
		fatal(errors.New("--trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(errors.New("--seconds must be positive"))
	}
	var run []*spec
	if *workloadName == "all" {
		run = specs
	} else {
		sp, err := specByName(*workloadName)
		if err != nil {
			fatal(err)
		}
		run = []*spec{sp}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	// Each process gets its own data directory, removed on the way out.
	data := filepath.Join(*dataDir, fmt.Sprintf("run%d", os.Getpid()))
	defer removeAll(data)

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, sp := range run {
		base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", sp.name, *seed, *traceMode))
		// A traced run's spans can take 150 MB, so each workload keeps only
		// its latest span file.
		spansPath := filepath.Join(*outDir, sp.name+".spans.tsv")
		o, err := runWorkload(sp, *seed, *seconds, *traceMode == 1, filepath.Join(data, sp.name), spansPath)
		if err != nil {
			removeAll(data)
			fatal(fmt.Errorf("%s: %w", sp.name, err))
		}
		prov := provenance(sp, *seed, *seconds, *traceMode)
		if err := report(sp, o, prov, base+".json", *seed, *traceMode); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing results: %v\n", err)
		}
		final.Attempted += o.attempted
		final.Failed += o.failed
		final.Correct = final.Correct && o.checkErr == nil && o.failed == 0
		for _, name := range o.order {
			key := name
			if len(run) > 1 {
				key = sp.name + "." + name
			}
			final.Metrics[key] = o.metrics[name]
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		removeAll(data)
		os.Exit(1)
	}
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints one workload's metrics with their units and writes its
// result file to path.
func report(sp *spec, o *outcome, prov map[string]any, path string, seed int64, traceMode int) error {
	fmt.Printf("== %s (seed %d, trace %d)\n", sp.name, seed, traceMode)
	for _, name := range o.order {
		m := o.metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	if o.checkErr != nil {
		fmt.Printf("  CHECK FAILED: %v\n", o.checkErr)
	}
	provLine, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Println(string(provLine))

	doc := map[string]any{
		"provenance": prov,
		"metrics":    o.metrics,
		"notes":      o.notes,
		"attempted":  o.attempted,
		"failed":     o.failed,
		"correct":    o.checkErr == nil && o.failed == 0,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// provenance records what produced a result: the seed, the workload's
// configuration and a fingerprint of the host.
func provenance(sp *spec, seed int64, seconds float64, traceMode int) map[string]any {
	return map[string]any{
		"workload": sp.name,
		"seed":     seed,
		"seconds":  seconds,
		"trace":    traceMode,
		"config": map[string]any{
			"code": codeID, "p": codeP, "elem_bytes": elemSize,
			"stripes": sp.stripes, "clients": sp.clients, "profile": sp.profile.Name,
			"max_len": maxLen, "max_times": maxTimes, "net": sp.net, "degraded": sp.degraded,
			"delay_us": sp.delay.Microseconds(), "rebuild_cycles": sp.rebuild,
			"healthy_ms": sp.healthy.Milliseconds(), "setup_reps": setupReps,
		},
		"host": map[string]any{
			"cpu":        cpuModel(),
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"kernel":     kernelRelease(),
			"go":         runtime.Version(),
		},
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// removeAll deletes dir, reporting a failure on stderr only: it holds
// nothing but this run's scratch files.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}
