package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// calibNominalMs is the calibration kernel's wall time (median burst) on the machine
// that froze the baseline (see README.md, "env"). Every timed sample is
// divided by the kernel time measured around it and multiplied by this
// constant, so calibrated values read as "ms on the nominal machine" whatever
// speed the host happens to run at during the sample.
const (
	calibNominalMs    = 18.5
	calibNominalCPUMs = 36.0 // the kernel keeps two cores busy on the nominal machine
)

// Kernel geometry, per worker. The three parts stress what the jobs stress:
// an L2-resident word hash (the MPI-D arena and the WordCount mapper), a
// streaming copy (spill, realign, framing) and dependent loads over a
// working set larger than L2 (merge heaps, hash probes). A kernel without
// the latency part tracked the WordCount job only half as well; a 32 MiB
// chase drifted for seconds while the kernel collapsed it into huge pages.
const (
	hashWords  = 16 << 10 // 128 KiB of uint64
	hashPasses = 200
	copyBytes  = 2 << 20
	copyPasses = 32
	chaseSlots = 2 << 20 // 8 MiB of uint32
	chaseSteps = 120 << 10
)

type kernelWorker struct {
	hash  []uint64
	src   []byte
	dst   []byte
	chase []uint32
	pos   uint32
	sink  uint64
}

// kernel is the benchmark-owned calibration workload: allocation-free once
// built, pre-faulted, one worker per GOMAXPROCS.
type kernel struct {
	workers []*kernelWorker
}

func newKernel() *kernel {
	k := &kernel{}
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		kw := &kernelWorker{
			hash:  make([]uint64, hashWords),
			src:   make([]byte, copyBytes),
			dst:   make([]byte, copyBytes),
			chase: make([]uint32, chaseSlots),
		}
		for i := range kw.hash {
			kw.hash[i] = rng.Uint64()
		}
		for i := range kw.src {
			kw.src[i] = byte(i)
		}
		// Sattolo's algorithm: one cycle through every slot, so the
		// chase never falls into a short loop.
		for i := range kw.chase {
			kw.chase[i] = uint32(i)
		}
		for i := len(kw.chase) - 1; i > 0; i-- {
			j := rng.Intn(i)
			kw.chase[i], kw.chase[j] = kw.chase[j], kw.chase[i]
		}
		k.workers = append(k.workers, kw)
	}
	return k
}

func (kw *kernelWorker) run() {
	h := kw.sink
	for p := 0; p < hashPasses; p++ {
		for _, w := range kw.hash {
			h = (h ^ w) * 0x100000001b3
		}
	}
	for p := 0; p < copyPasses; p++ {
		copy(kw.dst, kw.src)
		kw.src[p] = byte(h)
	}
	pos := kw.pos
	for s := 0; s < chaseSteps; s++ {
		pos = kw.chase[pos]
	}
	kw.pos = pos
	kw.sink = h + uint64(pos) + uint64(kw.dst[pos%copyBytes])
}

// run executes the kernel once on every worker and returns wall and process
// CPU time.
func (k *kernel) run() (wall, cpu time.Duration) {
	var wg sync.WaitGroup
	cpu0 := processCPU()
	t0 := time.Now()
	for _, kw := range k.workers[1:] {
		wg.Add(1)
		go func(kw *kernelWorker) {
			defer wg.Done()
			kw.run()
		}(kw)
	}
	k.workers[0].run()
	wg.Wait()
	return time.Since(t0), processCPU() - cpu0
}

// burstRuns is how many kernel runs one burst takes the fastest of.
const burstRuns = 7

// calibPoint is one burst: the machine's speed at one instant.
type calibPoint struct {
	wallMs float64
	cpuMs  float64
}

// burst collects garbage left by whatever ran before (so its mark work is
// not billed to the kernel) and returns the fastest of burstRuns kernel runs.
// Everything that disturbs a run slows it: the first runs after a segment
// find the kernel's arrays evicted by the jobs and take up to 1.5x as long,
// and now and then a worker is preempted for a few ms. Recorded bursts ramp
// down over their seven runs, so the median sat mid-ramp and moved with the
// ramp's shape; with the minimum, calibrated job_p50_ms spread 4-6 % over
// eight runs on three workloads and 10 % on serve-open, against 4-9 % and
// 23 % with the median.
func (k *kernel) burst() calibPoint {
	runtime.GC()
	walls := make([]float64, burstRuns)
	cpus := make([]float64, burstRuns)
	for i := range walls {
		w, c := k.run()
		walls[i], cpus[i] = ms(w), ms(c)
	}
	wall, _ := minMax(walls)
	cpu, _ := minMax(cpus)
	return calibPoint{wallMs: wall, cpuMs: cpu}
}

// warm runs the kernel until five consecutive runs agree within 3 % and use
// every worker's core (process CPU at least 0.8 x workers x wall), so page
// faults, huge-page collapse, frequency ramp and the first second in which a
// fresh process is sometimes confined to one core are over before anything
// is divided by the kernel. After three seconds it gives up with an error the
// caller reports and carries on: the bursts will say how noisy the run was.
func (k *kernel) warm() error {
	deadline := time.Now().Add(3 * time.Second)
	var last []float64
	parallel := 0
	for time.Now().Before(deadline) {
		w, c := k.run()
		last = append(last, ms(w))
		if len(last) > 5 {
			last = last[1:]
		}
		if float64(c) >= 0.8*float64(len(k.workers))*float64(w) {
			parallel++
		} else {
			parallel = 0
		}
		if lo, hi := minMax(last); parallel >= 5 && hi <= lo*1.03 {
			return nil
		}
	}
	return fmt.Errorf("calibration kernel did not settle in 3 s: last runs %.1f ms", last)
}

// bracket averages the two bursts around a segment.
func bracket(a, b calibPoint) calibPoint {
	return calibPoint{wallMs: (a.wallMs + b.wallMs) / 2, cpuMs: (a.cpuMs + b.cpuMs) / 2}
}

// wall converts a raw wall-clock duration measured near this calibration
// point to nominal-machine milliseconds; cpu does the same for CPU time.
func (c calibPoint) wall(rawMs float64) float64 { return rawMs / c.wallMs * calibNominalMs }
func (c calibPoint) cpu(rawMs float64) float64  { return rawMs / c.cpuMs * calibNominalCPUMs }
