package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestProcCPU(t *testing.T) {
	// A command name with spaces and a ')' must not shift the fields.
	stat := "4242 (hidden db) d)) S 1 4242 4242 0 -1 4194560 2178 0 0 0 " +
		"250 37 0 0 20 0 9 0 123456 1234567 890 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := procCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 287 * clockTick; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := procCPU("4242 (x) S 1 2 3"); err == nil {
		t.Error("short stat line accepted")
	}
	if _, err := procCPU("no command field"); err == nil {
		t.Error("stat line without command accepted")
	}
}

func TestProcCPUReadsThisProcess(t *testing.T) {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc:", err)
	}
	if _, err := procCPU(string(b)); err != nil {
		t.Fatal(err)
	}
	if kb, err := peakRSSKB(0); err != nil || kb <= 0 {
		t.Errorf("peak RSS = %d kB, %v", kb, err)
	}
}

func TestStatusKB(t *testing.T) {
	status := "Name:\thiddendbd\nVmPeak:\t  900000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   50000 kB\n"
	if got, err := statusKB(status, "VmHWM"); err != nil || got != 51234 {
		t.Errorf("VmHWM = %d, %v", got, err)
	}
	if _, err := statusKB(status, "VmSwap"); err == nil {
		t.Error("missing field accepted")
	}
}

func TestParseProcStat(t *testing.T) {
	const stat = "cpu  1000 10 300 5000 50 0 20 120 0 0\n" +
		"cpu0 500 5 150 2500 25 0 10 60 0 0\n" +
		"intr 12345\n"
	a, err := parseProcStat(strings.NewReader(stat))
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != 6500 || a.Steal != 120 {
		t.Errorf("aggregate = %+v, want total 6500 steal 120", a)
	}
	b := cpuTimes{Total: a.Total + 1000, Steal: a.Steal + 50}
	if got := stealRatio(a, b); got != 0.05 {
		t.Errorf("steal ratio = %g, want 0.05", got)
	}
	if got := stealRatio(a, a); got != 0 {
		t.Errorf("steal ratio over no time = %g", got)
	}
	if _, err := parseProcStat(strings.NewReader("cpu 1 2 3\n")); err == nil {
		t.Error("short cpu line accepted")
	}
	if _, err := parseProcStat(strings.NewReader("intr 1\n")); err == nil {
		t.Error("missing cpu line accepted")
	}
}

func TestParseHeapDebug(t *testing.T) {
	const heap = "heap profile: 1: 2 [3: 4] @ heap/1048576\n" +
		"1: 2 [3: 4] @ 0x1 0x2\n\n" +
		"# runtime.MemStats\n# Alloc = 1234\n# TotalAlloc = 987654321\n# Sys = 5\n" +
		"# NumGC = 77\n# NumForcedGC = 0\n"
	m, err := parseHeapDebug(strings.NewReader(heap))
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalAlloc != 987654321 || m.NumGC != 77 {
		t.Errorf("memstats = %+v", m)
	}
	if _, err := parseHeapDebug(strings.NewReader("heap profile: 0\n")); err == nil {
		t.Error("profile without MemStats accepted")
	}
}

func TestSelfCPUAdvances(t *testing.T) {
	a := selfCPU()
	deadline := time.Now().Add(30 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	if b := selfCPU(); b <= a {
		t.Errorf("selfCPU did not advance over a busy loop (%v -> %v, %d spins)", a, b, x)
	}
}
