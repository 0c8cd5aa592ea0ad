package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB is this process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// procSnapshot is the process accounting the proc.* metrics are differences
// of. It covers the whole process: the harness's client as well as the
// program under test, which share it.
type procSnapshot struct {
	mallocs uint64
	gcs     uint32
	pauseNs uint64
	cpu     time.Duration
}

func snapshotProc() procSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return procSnapshot{
		mallocs: m.Mallocs, gcs: m.NumGC, pauseNs: m.PauseTotalNs,
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// header describes where and how a run was made.
func header(cfg runConfig) string {
	commit := "unknown (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil { // only ask git inside a checkout it would not leave
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	phases := fmt.Sprintf("set-up x%d at least, warm-up %v, measured %v", cfg.setups, cfg.warmup, cfg.measured)
	if cfg.traced {
		phases = fmt.Sprintf("set-up x1, warm-up %v, untraced %v, then the replays and the layer probes",
			min(cfg.warmup, time.Second), cfg.basePhase())
	}
	return fmt.Sprintf("# rptcn benchmark: workload=%s seed=%d trace=%v commit=%s %s nproc=%d GOMAXPROCS=%d\n"+
		"# phases: %s; load: closed loop, 1 client, 1 keep-alive connection",
		cfg.workload, cfg.seed, cfg.traced, commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), phases)
}
