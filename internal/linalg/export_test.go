package linalg

import (
	"math"
	"runtime"
	"testing"
)

// blockKernel is one block kernel and the wideMinP that sends every
// block of accumulate to it, whatever the line length.
type blockKernel struct {
	name string
	minP int
}

// hostKernels lists every block kernel this host runs: the fallback
// (SSE2 on amd64, the portable loop elsewhere), forced even on hosts
// that have the wide kernel, then the AVX-512F kernel where the host
// has it. A host without it logs the skip.
func hostKernels(tb testing.TB) []blockKernel {
	fallback := "portable"
	if runtime.GOARCH == "amd64" {
		fallback = "sse2"
	}
	ks := []blockKernel{{fallback, math.MaxInt}}
	if wideMinP == math.MaxInt {
		tb.Logf("host has no AVX-512F kernel: only the %s kernel is checked", fallback)
		return ks
	}
	return append(ks, blockKernel{"avx512", 0})
}

// force routes every block to k until the returned function restores
// the host's choice.
func (k blockKernel) force() (restore func()) {
	saved := wideMinP
	wideMinP = k.minP
	return func() { wideMinP = saved }
}

// forEachKernel runs f as one subtest per kernel the host runs.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range hostKernels(t) {
		restore := k.force()
		t.Run(k.name, f)
		restore()
	}
}
