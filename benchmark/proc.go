package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU time so far, from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb * 1024 / 1e6
	}
	return 0
}

// openFDs counts the process's open file descriptors.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents) - 1 // ReadDir's own descriptor is listed too
}

// hygiene is a goroutine and descriptor count taken before set-up, for
// the close-and-leak check after every component is closed.
type hygiene struct{ goroutines, fds int }

func takeHygiene() hygiene { return hygiene{runtime.NumGoroutine(), openFDs()} }

// baseHygiene is the count taken before set-up. It first starts the
// runtime's poller, whose two descriptors (epoll and an eventfd) open on
// the first timer or socket and stay open, so they are not counted as
// leaks.
func baseHygiene() hygiene {
	time.Sleep(time.Millisecond)
	return takeHygiene()
}

// leaked waits up to a second for goroutines and descriptors to drain back
// to the baseline (handlers finish shortly after Close returns), then
// reports what is left above it.
func (h hygiene) leaked() (goroutines, fds int) {
	deadline := time.Now().Add(time.Second)
	for {
		now := takeHygiene()
		goroutines, fds = now.goroutines-h.goroutines, now.fds-h.fds
		if (goroutines <= 0 && fds <= 0) || time.Now().After(deadline) {
			return max(goroutines, 0), max(fds, 0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fingerprint identifies the machine and build a run was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func machine() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from dir/.git without running
// git; a checkout without .git reports "unknown".
func gitCommit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
