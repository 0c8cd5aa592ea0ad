// Command benchmark is the repository's standing end-to-end benchmark: four
// workloads against the real serving stack and the real training entry
// point, seven end-to-end metrics, and a per-layer budget from the socket
// down to the matrix products. See README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+"; default: every workload, traced and untraced, each run in a child process")
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the measured phase")
		traced   = flag.Int("trace", 0, "1: the traced run (per-layer metrics and the span file); 0: the end-to-end run")
		out      = flag.String("out", ".bench_build/traces", "directory the traced run writes trace-<workload>.jsonl to")
		runs     = flag.Int("runs", 1, "with no -workload: runs per workload, on seeds seed, seed+1, ...")
		jsonOut  = flag.String("json", "", "with no -workload: write every run's metrics to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -json files: benchmark -compare parent.json change.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare && flag.NArg() != 2:
		err = errors.New("-compare takes two files: parent.json change.json")
	case *compare:
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *seconds < 1 || *traced < 0 || *traced > 1 || *runs < 1:
		err = errors.New("-seconds and -runs must be at least 1 and -trace 0 or 1")
	case *workload == "":
		err = runAll(os.Stdout, *seed, *seconds, *out, *runs, *jsonOut)
	default:
		cfg := defaultRunConfig(*workload, *seed, *seconds, *traced == 1)
		cfg.out = *out
		_, err = run(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runRecord is one run in a -json file.
type runRecord struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"seed"`
	Trace    int                    `json:"trace"`
	Correct  bool                   `json:"correct"`
	Failed   int64                  `json:"failed"`
	Metrics  map[string]metricValue `json:"metrics"`
}

// runAll runs every workload untraced and traced, each run a fresh child
// process of this program, and prints a summary.
func runAll(w io.Writer, seed uint64, seconds int, out string, runs int, jsonOut string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var records []runRecord
	for _, name := range workloadNames {
		for r := 0; r < runs; r++ {
			for trace := 0; trace <= 1; trace++ {
				s := seed + uint64(r)
				cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(s, 10),
					"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if _, werr := w.Write(stdout); werr != nil {
					return werr
				}
				if err != nil {
					return fmt.Errorf("%s, seed %d, trace %d: %w", name, s, trace, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s, seed %d, trace %d: result line: %w", name, s, trace, err)
				}
				records = append(records, runRecord{name, s, trace, res.Correct, res.Failed, res.Metrics})
			}
		}
	}
	printSummary(w, records)
	if jsonOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(records, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonOut, data, 0o644)
}

// medians returns, for one workload and kind of run, the median of every
// metric over the runs, and whether every run was correct.
func medians(records []runRecord, workload string, trace int) (map[string]float64, bool) {
	byName := make(map[string][]float64)
	correct := true
	for _, r := range records {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		correct = correct && r.Correct
		for name, v := range r.Metrics {
			byName[name] = append(byName[name], v.Value)
		}
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out, correct
}

func printSummary(w io.Writer, records []runRecord) {
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		fmt.Fprintf(w, "\n%-34s %-8s", []string{"end-to-end (median of runs)", "per-layer (median of runs)"}[trace], "unit")
		cols := make([]map[string]float64, len(workloadNames))
		for i, name := range workloadNames {
			fmt.Fprintf(w, " %14s", name)
			cols[i], _ = medians(records, name, trace)
		}
		fmt.Fprintln(w)
		for _, d := range defs {
			fmt.Fprintf(w, "%-34s %-8s", d.Name, d.Unit)
			for _, col := range cols {
				fmt.Fprintf(w, " %14.6g", col[d.Name])
			}
			fmt.Fprintln(w)
		}
	}
	for _, name := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			if _, correct := medians(records, name, trace); !correct {
				fmt.Fprintf(w, "INCORRECT: %s, trace %d: a run failed ops or served a forecast the oracle does not\n", name, trace)
			}
		}
	}
}
