package main

import (
	"container/heap"
	"math"
	"runtime"
	"time"
)

// The reference kernel measures how fast the host runs this process
// right now. CPU time hides hypervisor steal, but not a busy host: a
// neighbour that ran on the core while this guest was descheduled
// leaves it cold caches, so CPU-time rates of one program read up to
// 30% apart between a busy and an idle period. The kernel is a fixed
// amount of work that depends on nothing in the simulator — an event
// heap, hash-map updates, a pointer chase and complex arithmetic, the
// kinds of work the simulator does — timed on its own thread's CPU
// clock between the workload's steps, about every probeEvery of
// workload CPU. The run's host factor F is the median of (kernel CPU ÷
// kernelNominal) over those samples, and gated CPU figures are divided
// by F, which turns process CPU seconds into reference seconds: CPU
// seconds as an idle reference host reads them. The raw figures are
// printed beside them.
const (
	kernelNominal = 28 * time.Millisecond
	probeEvery    = 250 * time.Millisecond
)

// Kernel sizes. The state is about 3 MiB, allocated once, so max_rss_mib
// carries it as a constant; one pass allocates nothing.
const (
	kernelEvents = 1 << 15 // pending events in the heap
	kernelKeys   = 1 << 15 // map entries
	kernelRing   = 1 << 18 // pointer-chase slots
	kernelIQ     = 1 << 12 // complex samples
	// Operations per pass, tuned so each part takes about a quarter of
	// kernelNominal on the reference host.
	kernelHeapOps  = 15000
	kernelMapOps   = 220000
	kernelChaseOps = 420000
	kernelIQPasses = 260
)

type kEvent struct {
	at int64
	id int32
}

type kHeap []*kEvent

func (h kHeap) Len() int { return len(h) }
func (h kHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].id < h[j].id)
}
func (h kHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *kHeap) Push(x interface{}) { *h = append(*h, x.(*kEvent)) }
func (h *kHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refKernel is the kernel's state. Every pass starts from the state the
// previous one left, and does the same amount of work.
type refKernel struct {
	events kHeap
	table  map[uint64]uint64
	ring   []uint32
	iq     []complex128
	rng    uint64
	sink   uint64 // keeps the compiler from dropping the work
}

func newRefKernel() *refKernel {
	k := &refKernel{rng: 0x9E3779B97F4A7C15, table: make(map[uint64]uint64, kernelKeys)}
	for i := 0; i < kernelEvents; i++ {
		k.events = append(k.events, &kEvent{at: int64(k.next() % 1e9), id: int32(i)})
	}
	heap.Init(&k.events)
	for i := uint64(0); i < kernelKeys; i++ {
		k.table[i*0x9E3779B97F4A7C15] = i
	}
	// A single cycle through every slot (Sattolo's shuffle), so the
	// chase visits the whole ring in random order.
	k.ring = make([]uint32, kernelRing)
	for i := range k.ring {
		k.ring[i] = uint32(i)
	}
	for i := kernelRing - 1; i > 0; i-- {
		j := int(k.next() % uint64(i))
		k.ring[i], k.ring[j] = k.ring[j], k.ring[i]
	}
	k.iq = make([]complex128, kernelIQ)
	for i := range k.iq {
		k.iq[i] = complex(math.Cos(float64(i)), math.Sin(float64(i)))
	}
	return k
}

func (k *refKernel) next() uint64 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	return k.rng
}

// pass does one fixed amount of work.
func (k *refKernel) pass() {
	for i := 0; i < kernelHeapOps; i++ {
		e := heap.Pop(&k.events).(*kEvent)
		e.at += int64(k.next()%1e6) + 1
		heap.Push(&k.events, e)
	}
	for i := 0; i < kernelMapOps; i++ {
		key := (k.next() % kernelKeys) * 0x9E3779B97F4A7C15
		k.table[key] += uint64(i)
	}
	p := uint32(k.next() % kernelRing)
	for i := 0; i < kernelChaseOps; i++ {
		p = k.ring[p]
	}
	k.sink += uint64(p)
	rot := complex(math.Cos(0.01), math.Sin(0.01))
	var acc complex128
	for n := 0; n < kernelIQPasses; n++ {
		ph := complex(1, 0)
		for i, x := range k.iq {
			acc += x * ph
			ph *= rot
			k.iq[i] = x * complex(1/math.Sqrt(real(x)*real(x)+imag(x)*imag(x)+1e-9), 0)
		}
	}
	k.sink += uint64(math.Float64bits(real(acc)))
}

// hostSpeed samples the kernel during a run.
type hostSpeed struct {
	k       *refKernel
	factors []float64     // kernel CPU ÷ kernelNominal, per sample
	since   time.Duration // workload CPU since the last sample
	off     bool          // no sampling: the traced pass profiles the workload alone
}

func newHostSpeed() *hostSpeed { return &hostSpeed{k: newRefKernel()} }

// sample times one kernel pass on the calling thread's CPU clock, so
// that garbage collection running on other threads is not counted.
func (h *hostSpeed) sample() {
	if h.off {
		return
	}
	runtime.LockOSThread()
	c0 := threadCPU()
	h.k.pass()
	d := threadCPU() - c0
	runtime.UnlockOSThread()
	h.factors = append(h.factors, float64(d)/float64(kernelNominal))
	h.since = 0
}

// after counts d of workload CPU and samples once probeEvery of it has
// passed since the last sample.
func (h *hostSpeed) after(d time.Duration) {
	h.since += d
	if h.since >= probeEvery {
		h.sample()
	}
}

// factor is the run's host factor: the median sample, or 1 before the
// first sample.
func (h *hostSpeed) factor() float64 {
	if len(h.factors) == 0 {
		return 1
	}
	return median(h.factors)
}
