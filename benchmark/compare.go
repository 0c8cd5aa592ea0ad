package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// baselineJSON records what the benchmark measured when it was defined: for
// each workload and end-to-end metric the median over ten seeds and the
// spread between two sets of runs of one commit. -compare reads the spreads.
//
//go:embed baseline.json
var baselineJSON []byte

type baseline struct {
	Workloads map[string]map[string]baselineMetric `json:"workloads"`
}

type baselineMetric struct {
	Median float64 `json:"median"`
	// Spread is the distance between the first and third quartile of the
	// ten runs as a share of their median, the larger of the two sets'.
	Spread float64 `json:"spread"`
}

// verdict of one workload and metric.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares a change's median with the parent's. worse is the share of
// the parent's median by which the metric moved in its bad direction.
func judge(d metricDef, parent, change, spread float64) (worse float64, verdict string) {
	worse = (change - parent) / parent
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case d.Name == "ok_ratio" && change < parent:
		return worse, regressed // any rise in the share of failed ops
	case spread > d.Bound:
		return worse, unresolved // the metric cannot tell a change of this size from noise
	case worse > d.Bound:
		return worse, regressed
	case worse < -spread && worse < 0:
		return worse, improved
	}
	return worse, unchanged
}

func readRuns(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var records []runRecord
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return records, nil
}

// compareFiles prints, for every workload and end-to-end metric, both
// medians, their ratio, the bound and a verdict. It fails when any metric
// regressed or any run was incorrect.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	var base baseline
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		return fmt.Errorf("baseline.json: %w", err)
	}
	parent, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-13s %14s %14s %22s %6s %7s  %s\n",
		"workload", "metric", "parent median", "change median", "change/parent", "bound", "spread", "verdict")
	var bad []string
	for _, name := range workloadNames {
		pm, pok := medians(parent, name, 0)
		cm, cok := medians(change, name, 0)
		if len(pm) == 0 || len(cm) == 0 {
			return fmt.Errorf("%s: no end-to-end run in one of the files", name)
		}
		if !pok || !cok {
			bad = append(bad, name+": a run was incorrect")
		}
		for _, d := range endToEnd {
			spread := base.Workloads[name][d.Name].Spread
			worse, v := judge(d, pm[d.Name], cm[d.Name], spread)
			fmt.Fprintf(w, "%-13s %-13s %14.6g %14.6g %8.4f of %-10.6g %6.2f %7.4f  %s\n",
				name, d.Name, pm[d.Name], cm[d.Name], cm[d.Name]/pm[d.Name], pm[d.Name], d.Bound, spread, v)
			if v == regressed {
				bad = append(bad, fmt.Sprintf("%s %s is worse by %.1f %% of the parent's median (bound %.0f %%)",
					name, d.Name, 100*worse, 100*d.Bound))
			}
		}
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(w, "REGRESSED:", b)
		}
		return errors.New("the change regressed")
	}
	return nil
}
