package kernel

import (
	"os"
	"strings"
	"testing"
)

// TestDetectAVX2 holds the CPUID/XGETBV probe to the Linux kernel's view:
// /proc/cpuinfo lists avx2 exactly when the CPU has it and the kernel
// enables the YMM state. Elsewhere it skips.
func TestDetectAVX2(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	want := false
	for _, f := range flags {
		want = want || f == "avx2"
	}
	if got := detectAVX2(); got != want {
		t.Errorf("detectAVX2() = %v, /proc/cpuinfo lists avx2: %v", got, want)
	}
}
