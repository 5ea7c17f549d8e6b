//go:build unix

package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func init() { readUsage = getrusage }

func getrusage() (cpuS, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpuS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	maxRSSMB = float64(ru.Maxrss) / 1024 // KiB on Linux and the BSDs
	if runtime.GOOS == "darwin" {
		maxRSSMB /= 1024 // bytes on macOS
	}
	// On Linux ru_maxrss also counts the resident set the parent had when
	// it started the process, so every child would read at least the
	// parent's size. The high-water mark of the process's own address
	// space does not.
	if kb, ok := vmHWM(); ok {
		maxRSSMB = kb / 1024
	}
	return cpuS, maxRSSMB
}

// vmHWM returns the VmHWM line of /proc/self/status in KiB.
func vmHWM() (float64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb, err == nil
		}
	}
	return 0, false
}
