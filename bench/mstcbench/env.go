package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostEnv is the environment header every run prints: the measurements
// mean little without the machine they were taken on.
type hostEnv struct {
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	RAMMB      float64
	WorkFS     string // filesystem type of the directory stores and traces live in
}

func readHostEnv(workdir string) hostEnv {
	return hostEnv{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		RAMMB:      procKB("/proc/meminfo", "MemTotal:") / 1024,
		WorkFS:     fsType(workdir),
	}
}

func (e hostEnv) String() string {
	return fmt.Sprintf("env nproc=%d gomaxprocs=%d go=%s ram_mb=%.0f workdir_fs=%s",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.RAMMB, e.WorkFS)
}

// limit refuses concurrency beyond the host's processors: more run
// goroutines or connections than nproc would measure the scheduler, not
// the code.
func (e hostEnv) limit(what string, n int) error {
	if n < 1 || n > e.NProc {
		return fmt.Errorf("%s = %d outside [1, nproc=%d]", what, n, e.NProc)
	}
	return nil
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// procKB returns the kB value of the line starting with key in a /proc
// status-style file, or 0 when it cannot be read.
func procKB(path, key string) float64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			v, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0
			}
			return v
		}
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 { return procKB("/proc/self/status", "VmHWM:") / 1024 }

// settle collects the heap, returns every free page to the OS and resets
// the resident-set high-water mark to the resident set that remains
// (clear_refs "5", proc(5)), so the next peakRSSMB reading is the peak of
// what runs from here on alone.
func settle() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTime is the process's user+system CPU time so far, and its count of
// minor page faults.
func cpuTime() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Minflt
}

// totalAlloc is the cumulative heap bytes allocated (MemStats.TotalAlloc).
// ReadMemStats stops the world briefly, so the harness calls it only at
// pass boundaries.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
