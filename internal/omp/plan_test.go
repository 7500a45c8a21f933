package omp

import (
	"container/heap"
	"sort"
	"testing"
	"testing/quick"

	"pnptuner/internal/hw"
)

// Property: finishing one plan at every cap of the machine gives exactly
// the result Run gives at that cap, for every schedule and chunk class.
func TestQuickPlanFinishMatchesRun(t *testing.T) {
	f := func(seed uint64) bool {
		m := hw.Machines()[seed%2]
		ex := NewExecutor(m)
		model := randomModel(seed)
		if model.Trips > 200_000 {
			model.Trips = 200_000 // keep exact simulation cheap
		}
		threads := m.ThreadCounts[int(seed>>16)%len(m.ThreadCounts)]
		for _, sched := range []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided} {
			for _, chunk := range []int64{0, 1, 32, 512} {
				cfg := Config{Threads: threads, Sched: sched, Chunk: chunk}
				plan := ex.Plan(model, seed, cfg)
				for _, capW := range m.PowerLimits {
					if ex.Finish(plan, capW) != ex.Run(model, seed, cfg, capW) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// refHeap is a container/heap min-heap of thread available-times: the
// reference addToMin must agree with.
type refHeap []float64

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Property: the in-place sift-down and container/heap's Pop then
// Push(t+w) take the same minimum at every step and end holding the same
// multiset. The arrangements may differ: from [0 5 1 6 7] with w = 2 the
// sift-down leaves [1 5 2 6 7] and Pop/Push [1 2 7 6 5]. Only the root
// (the thread that takes the next chunk) and the multiset (whose maximum
// is the makespan) reach the result, so those are what must agree.
func TestQuickSiftDownMatchesContainerHeap(t *testing.T) {
	f := func(seed uint64) bool {
		next := func() uint64 {
			seed += 0x9e3779b97f4a7c15
			z := seed
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
		for _, n := range []int{2, 3, 16, 64} {
			got := make([]float64, n)
			ref := make(refHeap, n)
			heap.Init(&ref)
			for i := 0; i < 2000; i++ {
				w := float64(next()>>11) / (1 << 53)
				if next()%8 == 0 {
					w = float64(next() % 4) // repeated and zero works tie
				}
				if got[0] != ref[0] {
					return false
				}
				addToMin(got, w)
				t := heap.Pop(&ref).(float64)
				heap.Push(&ref, t+w)
			}
			sort.Float64s(got)
			sort.Float64s(ref)
			for i := range got {
				if got[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
