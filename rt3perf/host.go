package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// hostLine fingerprints the machine a run measured: CPU model, logical
// CPUs, GOMAXPROCS, Go version and the SIMD extensions the kernels
// dispatch on. Fields the OS does not expose read "unknown".
func hostLine() string {
	model, flags := "unknown", map[string]bool{}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(key) {
			case "model name":
				model = strings.TrimSpace(val)
			case "flags":
				for _, fl := range strings.Fields(val) {
					flags[fl] = true
				}
			}
		}
		f.Close()
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s/%s avx=%t sse2=%t",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOARCH, flags["avx"], flags["sse2"])
}
