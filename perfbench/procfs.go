package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ: /proc CPU times count in 1/100 s on
// every mainstream Linux build.
const clockTick = 10 * time.Millisecond

// procCPU parses the contents of /proc/<pid>/stat and returns the
// process's user+system CPU time. The command name (field 2) may hold
// spaces and parentheses, so fields are counted after its last ')'.
func procCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ")": state is field 3; utime and stime are fields 14 and 15.
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, need 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// pidCPU reads a live process's user+system CPU time.
func pidCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return procCPU(string(b))
}

// selfCPU reads this process's user+system CPU time at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statusKB returns a "Key:   N kB" field of /proc/<pid>/status contents.
func statusKB(status, key string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		f := strings.Fields(line[len(key)+1:])
		if len(f) == 0 {
			break
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s field", key)
}

// peakRSSKB reads a process's resident-set high-water mark (VmHWM); pid 0
// means this process.
func peakRSSKB(pid int) (int64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return statusKB(string(b), "VmHWM")
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ Total, Steal int64 }

// parseProcStat reads the aggregate cpu line: user nice system idle iowait
// irq softirq steal (guest time is already inside user and nice).
func parseProcStat(r io.Reader) (cpuTimes, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("proc stat: cpu line has %d fields, need 9", len(f))
		}
		var t cpuTimes
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("proc stat cpu field %d: %w", i, err)
			}
			t.Total += v
			if i == 8 {
				t.Steal = v
			}
		}
		return t, nil
	}
	return cpuTimes{}, fmt.Errorf("proc stat: no aggregate cpu line")
}

// readCPUTimes samples /proc/stat; a failed read yields zeros, which the
// steal ratio reports as 0.
func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	t, _ := parseProcStat(f)
	return t
}

// stealRatio is the share of CPU time the hypervisor stole between two
// samples.
func stealRatio(a, b cpuTimes) float64 {
	return ratio(float64(b.Steal-a.Steal), float64(b.Total-a.Total))
}

// goMem is the part of runtime.MemStats the per-process metrics need.
type goMem struct {
	TotalAlloc uint64
	NumGC      uint32
}

// parseHeapDebug reads the "# runtime.MemStats" trailer that
// /debug/pprof/heap?debug=1 appends to the heap profile.
func parseHeapDebug(r io.Reader) (goMem, error) {
	var m goMem
	var haveAlloc, haveGC bool
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# TotalAlloc = "):
			v, err := strconv.ParseUint(strings.TrimPrefix(line, "# TotalAlloc = "), 10, 64)
			if err != nil {
				return m, fmt.Errorf("heap profile TotalAlloc: %w", err)
			}
			m.TotalAlloc, haveAlloc = v, true
		case strings.HasPrefix(line, "# NumGC = "):
			v, err := strconv.ParseUint(strings.TrimPrefix(line, "# NumGC = "), 10, 32)
			if err != nil {
				return m, fmt.Errorf("heap profile NumGC: %w", err)
			}
			m.NumGC, haveGC = uint32(v), true
		}
	}
	if err := sc.Err(); err != nil {
		return m, err
	}
	if !haveAlloc || !haveGC {
		return m, fmt.Errorf("heap profile: no runtime.MemStats trailer")
	}
	return m, nil
}
