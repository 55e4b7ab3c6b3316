package main

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gokoala/internal/tensor"
)

// machine is what the numbers were measured on.
type machine struct {
	cpuModel string
	cores    int
	llcBytes int64 // largest last-level cache of cpu0; 0 when /sys does not say
}

func readMachine(cores int) machine {
	m := machine{cpuModel: "unknown", cores: cores}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.cpuModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The last-level cache is the highest-level data or unified cache.
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best := 0
	for _, d := range dirs {
		level, err := readTrimmed(filepath.Join(d, "level"))
		if err != nil {
			continue
		}
		typ, _ := readTrimmed(filepath.Join(d, "type"))
		size, _ := readTrimmed(filepath.Join(d, "size"))
		lv, _ := strconv.Atoi(level)
		if typ == "Instruction" || lv < best {
			continue
		}
		if b := parseCacheSize(size); b > 0 {
			best, m.llcBytes = lv, b
		}
	}
	return m
}

func readTrimmed(path string) (string, error) {
	b, err := os.ReadFile(path)
	return strings.TrimSpace(string(b)), err
}

// parseCacheSize reads the "55296K" / "32M" form of sysfs cache sizes.
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// roofline holds the tensor-layer rates the einsum numbers are read
// against, measured by direct kernel calls in the same process.
type roofline struct {
	gemm256        float64 // GFLOP/s, 8 real flops per complex multiply-add
	gemmSkinny     float64 // GFLOP/s
	transpose      float64 // GB/s, bytes read plus bytes written
	transposeBytes int64   // size of the transposed tensor
}

// assumedLLC stands in when /sys does not report a cache size.
const assumedLLC = 32 << 20

func medianRate(work float64, samples int, f func()) float64 {
	f() // warm-up
	secs := make([]float64, samples)
	for i := range secs {
		t0 := time.Now()
		f()
		secs[i] = time.Since(t0).Seconds()
	}
	return work / median(secs) / 1e9
}

func measureRoofline(m machine) *roofline {
	rng := rand.New(rand.NewSource(1))
	r := &roofline{}

	a, b := tensor.Rand(rng, 256, 256), tensor.Rand(rng, 256, 256)
	r.gemm256 = medianRate(8*256*256*256, 15, func() { tensor.MatMul(a, b) })

	// The tall-skinny shape of a RandSVD sketch at bond dimension 8; one
	// multiply is microseconds, so a sample is 200 of them.
	ta, tb := tensor.Rand(rng, 4096, 8), tensor.Rand(rng, 8, 8)
	r.gemmSkinny = medianRate(200*8*4096*8*8, 15, func() {
		for i := 0; i < 200; i++ {
			tensor.MatMul(ta, tb)
		}
	})

	// A bandwidth figure needs an array at least four times the caches.
	llc := m.llcBytes
	if llc == 0 {
		llc = assumedLLC
	}
	n := int(math.Ceil(math.Pow(float64(4*llc)/16, 0.25)))
	src, dst := tensor.New(n, n, n, n), tensor.New(n, n, n, n)
	for i, d := 0, src.Data(); i < len(d); i++ {
		d[i] = complex(float64(i&1023), 1)
	}
	r.transposeBytes = int64(src.Size()) * 16
	r.transpose = medianRate(2*float64(r.transposeBytes), 3, func() { tensor.TransposeInto(dst, src, 2, 0, 3, 1) })
	return r
}
