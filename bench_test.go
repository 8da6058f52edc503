// Benchmarks regenerating the paper's evaluation (Section 6). There is one
// benchmark (or benchmark family) per figure panel and per in-text claim; the
// mapping to the paper is listed in EXPERIMENTS.md. The cmd/bench* drivers
// produce the full tables; these testing.B benchmarks produce the same
// quantities as per-op metrics so they can be tracked with `go test -bench`.
//
// Custom metrics reported:
//
//	probes/Get    average number of test-and-set trials per registration
//	              (Figure 2b)
//	probes-stddev standard deviation of trials per registration (Figure 2c)
//	worst-probes  worst-case trials observed by any single registration
//	              (Figure 2d)
//	ns/op         inverse throughput (Figure 2a)
package levelarray_test

import (
	"fmt"
	"net"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/adversary"
	"github.com/levelarray/levelarray/internal/cluster"
	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/experiments"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/registry"
	"github.com/levelarray/levelarray/internal/sched"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/shard"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wal"
	"github.com/levelarray/levelarray/internal/wire"
)

// prefillArray registers `count` resident handles that stay registered for
// the whole benchmark, establishing the paper's pre-fill load.
func prefillArray(b *testing.B, arr activity.Array, count int) {
	b.Helper()
	for i := 0; i < count; i++ {
		if _, err := arr.Handle().Get(); err != nil {
			b.Fatalf("pre-fill registration %d: %v", i, err)
		}
	}
}

// fig2Bench builds the benchmark closure for one algorithm of Figure 2: the
// paper's register/deregister churn at 50% pre-fill on an L = 2N array under
// RunParallel, reporting the probe metrics.
func fig2Bench(algo registry.Algorithm) func(b *testing.B) {
	return func(b *testing.B) {
		// The paper's configuration: N = 1000·n emulated registrations,
		// L = 2N slots, 50% pre-fill. n is the benchmark's parallelism.
		const emulationFactor = 1000
		capacity := runtime.GOMAXPROCS(0) * emulationFactor
		arr := registry.MustNew(algo, registry.Options{Capacity: capacity, Seed: 7})
		prefillArray(b, arr, capacity/2)

		var (
			mu     sync.Mutex
			merged activity.ProbeStats
		)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			h := arr.Handle()
			for pb.Next() {
				if _, err := h.Get(); err != nil {
					b.Errorf("Get: %v", err)
					return
				}
				if err := h.Free(); err != nil {
					b.Errorf("Free: %v", err)
					return
				}
			}
			mu.Lock()
			merged.Merge(h.Stats())
			mu.Unlock()
		})
		b.StopTimer()
		reportProbeMetrics(b, merged)
	}
}

// reportProbeMetrics attaches the Figure 2 panel quantities to the benchmark.
func reportProbeMetrics(b *testing.B, s activity.ProbeStats) {
	b.Helper()
	if s.Ops == 0 {
		return
	}
	b.ReportMetric(s.Mean(), "probes/Get")
	b.ReportMetric(s.StdDev(), "probes-stddev")
	b.ReportMetric(float64(s.MaxProbes), "worst-probes")
}

// BenchmarkFig2 reproduces Figure 2 (all four panels) at the current
// GOMAXPROCS as the thread count: ns/op is the throughput panel, and the
// custom metrics are the average, standard deviation and worst-case panels.
// Sweep thread counts externally with -cpu 1,2,4,... to regenerate the x-axis.
func BenchmarkFig2(b *testing.B) {
	for _, algo := range registry.Randomized() {
		b.Run(algo.String(), fig2Bench(algo))
	}
}

// BenchmarkFig2Deterministic adds the deterministic left-to-right scan, which
// the paper excludes from Figure 2 because its average cost is at least two
// orders of magnitude higher; it is run at a reduced emulation factor so the
// benchmark completes quickly.
func BenchmarkFig2Deterministic(b *testing.B) {
	const emulationFactor = 50
	capacity := runtime.GOMAXPROCS(0) * emulationFactor
	arr := registry.MustNew(registry.Deterministic, registry.Options{Capacity: capacity, Seed: 7})
	prefillArray(b, arr, capacity/2)
	var (
		mu     sync.Mutex
		merged activity.ProbeStats
	)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := arr.Handle()
		for pb.Next() {
			if _, err := h.Get(); err != nil {
				b.Errorf("Get: %v", err)
				return
			}
			if err := h.Free(); err != nil {
				b.Errorf("Free: %v", err)
				return
			}
		}
		mu.Lock()
		merged.Merge(h.Stats())
		mu.Unlock()
	})
	b.StopTimer()
	reportProbeMetrics(b, merged)
}

// BenchmarkLongRunStability reproduces the in-text claim that the LevelArray
// sustains a ~1.75 average and a single-digit worst case over very long runs
// (the paper reports 0.2–2 billion operations; scale with -benchtime).
func BenchmarkLongRunStability(b *testing.B) {
	const capacity = 8 * 1000
	arr := core.MustNew(core.Config{Capacity: capacity, Seed: 11})
	prefillArray(b, arr, capacity/2)
	var (
		mu     sync.Mutex
		merged activity.ProbeStats
	)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := arr.Handle()
		for pb.Next() {
			if _, err := h.Get(); err != nil {
				b.Errorf("Get: %v", err)
				return
			}
			if err := h.Free(); err != nil {
				b.Errorf("Free: %v", err)
				return
			}
		}
		mu.Lock()
		merged.Merge(h.Stats())
		mu.Unlock()
	})
	b.StopTimer()
	reportProbeMetrics(b, merged)
	if merged.BackupOps > 0 {
		b.Errorf("backup array used %d times at 50%% load", merged.BackupOps)
	}
}

// BenchmarkPrefillSweep reproduces the in-text claim that the results are
// stable for pre-fill percentages between 0%% and 90%%.
func BenchmarkPrefillSweep(b *testing.B) {
	const capacity = 4 * 1000
	for _, prefillPercent := range []int{0, 50, 90} {
		prefillPercent := prefillPercent
		b.Run(fmt.Sprintf("prefill=%d", prefillPercent), func(b *testing.B) {
			arr := core.MustNew(core.Config{Capacity: capacity, Seed: 13})
			prefillArray(b, arr, capacity*prefillPercent/100)
			var (
				mu     sync.Mutex
				merged activity.ProbeStats
			)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := arr.Handle()
				for pb.Next() {
					if _, err := h.Get(); err != nil {
						b.Errorf("Get: %v", err)
						return
					}
					if err := h.Free(); err != nil {
						b.Errorf("Free: %v", err)
						return
					}
				}
				mu.Lock()
				merged.Merge(h.Stats())
				mu.Unlock()
			})
			b.StopTimer()
			reportProbeMetrics(b, merged)
		})
	}
}

// BenchmarkArraySizeSweep reproduces the in-text claim that behaviour is
// stable for array sizes L between 2N and 4N.
func BenchmarkArraySizeSweep(b *testing.B) {
	const capacity = 4 * 1000
	for _, factor := range []float64{2, 3, 4} {
		factor := factor
		b.Run(fmt.Sprintf("L=%.0fN", factor), func(b *testing.B) {
			arr := registry.MustNew(registry.LevelArray, registry.Options{
				Capacity:   capacity,
				SizeFactor: factor,
				Seed:       17,
			})
			prefillArray(b, arr, capacity/2)
			var (
				mu     sync.Mutex
				merged activity.ProbeStats
			)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := arr.Handle()
				for pb.Next() {
					if _, err := h.Get(); err != nil {
						b.Errorf("Get: %v", err)
						return
					}
					if err := h.Free(); err != nil {
						b.Errorf("Free: %v", err)
						return
					}
				}
				mu.Lock()
				merged.Merge(h.Stats())
				mu.Unlock()
			})
			b.StopTimer()
			reportProbeMetrics(b, merged)
		})
	}
}

// BenchmarkFig3Healing reproduces Figure 3: each iteration sets up the
// degraded initial state (batch 1 overcrowded) and runs churn until the
// damage is repaired, reporting how many operations that took.
func BenchmarkFig3Healing(b *testing.B) {
	var totalOpsToHeal, healedRuns float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3Healing(experiments.HealingConfig{
			Capacity:      2048,
			SnapshotEvery: 1000,
			Snapshots:     16,
			Seed:          uint64(i + 1),
		})
		if err != nil {
			b.Fatalf("Fig3Healing: %v", err)
		}
		if res.HealedAfter >= 0 {
			totalOpsToHeal += float64(res.Snapshots[res.HealedAfter].Step)
			healedRuns++
		}
	}
	if healedRuns > 0 {
		b.ReportMetric(totalOpsToHeal/healedRuns, "ops-to-heal")
	}
	b.ReportMetric(healedRuns/float64(b.N), "healed-fraction")
}

// BenchmarkLogLogScaling reproduces the Theorem 1 scaling experiment in the
// step-level simulator: the worst-case probe count as n grows (it should
// track log log n, i.e. stay in the single digits across this whole sweep).
func BenchmarkLogLogScaling(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var worst, mean float64
			for i := 0; i < b.N; i++ {
				sim := sched.MustNew(sched.Config{
					Capacity: n,
					Seed:     uint64(i + 1),
					Inputs: adversary.UniformInputs(n, adversary.InputSpec{
						Rounds:        4,
						CallsAfterGet: 1,
					}),
				})
				schedule := adversary.UniformRandom(n, uint64(i+1))
				if err := sim.RunUntilDone(schedule, uint64(n)*4*256); err != nil {
					b.Fatalf("simulation: %v", err)
				}
				stats := sim.MergedStats()
				if float64(stats.MaxProbes) > worst {
					worst = float64(stats.MaxProbes)
				}
				mean += stats.Mean()
			}
			b.ReportMetric(worst, "worst-probes")
			b.ReportMetric(mean/float64(b.N), "probes/Get")
		})
	}
}

// BenchmarkCollect measures the cost of the Collect scan (the paper's O(n)
// operation) at several capacities and 50% occupancy, on the default bitmap
// substrate (64 slots per atomic load).
func BenchmarkCollect(b *testing.B) {
	for _, n := range []int{1000, 10000, 80000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			arr := core.MustNew(core.Config{Capacity: n, Seed: 23})
			prefillArray(b, arr, n/2)
			buf := make([]int, 0, arr.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = arr.Collect(buf[:0])
			}
			b.StopTimer()
			if len(buf) != n/2 {
				b.Fatalf("Collect returned %d names, want %d", len(buf), n/2)
			}
		})
	}
}

// substrateKinds enumerates the slot layouts compared by the substrate
// benchmarks, in the order they should appear in reports.
func substrateKinds() []core.SpaceKind {
	return []core.SpaceKind{core.SpaceBitmap, core.SpaceBitmapPadded, core.SpacePadded, core.SpaceCompact}
}

// BenchmarkCollectSubstrates compares the Collect scan across slot layouts at
// n=4096 and 50% occupancy: the bitmap substrates scan 64 slots per atomic
// load while the unpacked layouts pay one atomic load per slot. This is the
// headline comparison for the word-packed substrate (the bitmap word-scan is
// expected to beat the per-slot CompactSpace scan by well over 4x).
func BenchmarkCollectSubstrates(b *testing.B) {
	const n = 4096
	for _, kind := range substrateKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			arr := core.MustNew(core.Config{Capacity: n, Seed: 23, Space: kind})
			prefillArray(b, arr, n/2)
			buf := make([]int, 0, arr.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = arr.Collect(buf[:0])
			}
			b.StopTimer()
			if len(buf) != n/2 {
				b.Fatalf("Collect returned %d names, want %d", len(buf), n/2)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(arr.Size()), "ns/slot")
		})
	}
}

// BenchmarkGetFreeSubstrates compares the register/deregister churn across
// slot layouts under RunParallel at 50% pre-fill, exposing the contention
// trade-off of packing 64 slots into one CAS word: the dispatch-free bitmap
// path vs the interface-dispatch unpacked layouts.
func BenchmarkGetFreeSubstrates(b *testing.B) {
	const capacity = 4 * 1000
	for _, kind := range substrateKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			arr := core.MustNew(core.Config{Capacity: capacity, Seed: 43, Space: kind})
			prefillArray(b, arr, capacity/2)
			var (
				mu     sync.Mutex
				merged activity.ProbeStats
			)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := arr.Handle()
				for pb.Next() {
					if _, err := h.Get(); err != nil {
						b.Errorf("Get: %v", err)
						return
					}
					if err := h.Free(); err != nil {
						b.Errorf("Free: %v", err)
						return
					}
				}
				mu.Lock()
				merged.Merge(h.Stats())
				mu.Unlock()
			})
			b.StopTimer()
			reportProbeMetrics(b, merged)
		})
	}
}

// BenchmarkOccupancySubstrates compares the word-at-a-time occupancy count
// against the per-slot scan, the primitive behind the healing experiment's
// snapshots.
func BenchmarkOccupancySubstrates(b *testing.B) {
	const n = 4096
	for _, kind := range substrateKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			arr := core.MustNew(core.Config{Capacity: n, Seed: 47, Space: kind})
			prefillArray(b, arr, n/2)
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				total += arr.Occupancy().Total()
			}
			b.StopTimer()
			if total != b.N*n/2 {
				b.Fatalf("occupancy drifted: total %d over %d iterations", total, b.N)
			}
		})
	}
}

// BenchmarkUncontendedGetFree is the single-thread baseline cost of one
// register/deregister pair (the leftmost point of Figure 2).
func BenchmarkUncontendedGetFree(b *testing.B) {
	for _, algo := range registry.All() {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) {
			arr := registry.MustNew(algo, registry.Options{Capacity: 1000, Seed: 29})
			h := arr.Handle()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Get(); err != nil {
					b.Fatalf("Get: %v", err)
				}
				if err := h.Free(); err != nil {
					b.Fatalf("Free: %v", err)
				}
			}
		})
	}
}

// BenchmarkShardedScaling measures aggregate Get/Free throughput as the
// shard count grows in a scale-out deployment: the per-shard capacity and
// the offered load (resident names at fill% of one shard's capacity, plus g
// churning goroutines) are held fixed while shards are added, so S=1 runs a
// single array near its contention bound and S=8 spreads the same load over
// 8x the capacity. ns/op is the cost of one Get+Free pair; exactly g worker
// goroutines run regardless of GOMAXPROCS, so the numbers are comparable
// across machines. This is the recorded scaling evidence for the sharded
// subsystem (benchmarks/latest.json).
func BenchmarkShardedScaling(b *testing.B) {
	const (
		shardCapacity = 64
		goroutines    = 8
	)
	for _, fill := range []int{50, 85} {
		for _, shards := range []int{1, 2, 4, 8} {
			fill, shards := fill, shards
			b.Run(fmt.Sprintf("fill=%d/g=%d/S=%d", fill, goroutines, shards), func(b *testing.B) {
				arr := shard.MustNew(shard.Config{
					Shards:   shards,
					Capacity: shards * shardCapacity,
					Seed:     7,
				})
				// Fixed offered load: the residents fill one shard's worth of
				// capacity to fill%, regardless of how many shards exist.
				prefillArray(b, arr, shardCapacity*fill/100)
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < goroutines; w++ {
					iters := b.N / goroutines
					if w < b.N%goroutines {
						iters++
					}
					wg.Add(1)
					go func(iters int) {
						defer wg.Done()
						h := arr.Handle()
						for i := 0; i < iters; i++ {
							if _, err := h.Get(); err != nil {
								b.Errorf("Get: %v", err)
								return
							}
							if err := h.Free(); err != nil {
								b.Errorf("Free: %v", err)
								return
							}
						}
					}(iters)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkShardedCollect measures the merged cross-shard Collect: the same
// total namespace at the same occupancy, scanned word-at-a-time through 1 or
// 8 bitmap views. The merge should cost the same per slot as a single array.
func BenchmarkShardedCollect(b *testing.B) {
	const capacity = 4096
	for _, shards := range []int{1, 8} {
		shards := shards
		b.Run(fmt.Sprintf("S=%d", shards), func(b *testing.B) {
			arr := shard.MustNew(shard.Config{Shards: shards, Capacity: capacity, Seed: 7})
			prefillArray(b, arr, capacity/2)
			dst := make([]int, 0, capacity)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = arr.Collect(dst[:0])
			}
			if len(dst) != capacity/2 {
				b.Fatalf("Collect returned %d names, want %d", len(dst), capacity/2)
			}
		})
	}
}

// probeModeBench measures one probe-mode cell: `fill`% of capacity stays
// resident while exactly g goroutines churn Get/Free pairs, so ns/op is the
// cost of one pair at that load, comparable across machines regardless of
// GOMAXPROCS.
func probeModeBench(mode core.ProbeMode, epsilon float64, capacity, fill, goroutines int) func(b *testing.B) {
	return func(b *testing.B) {
		arr := core.MustNew(core.Config{Capacity: capacity, Epsilon: epsilon, Seed: 61, Probe: mode})
		prefillArray(b, arr, capacity*fill/100)
		var wg sync.WaitGroup
		b.ResetTimer()
		for w := 0; w < goroutines; w++ {
			iters := b.N / goroutines
			if w < b.N%goroutines {
				iters++
			}
			wg.Add(1)
			go func(iters int) {
				defer wg.Done()
				h := arr.Handle()
				for i := 0; i < iters; i++ {
					if _, err := h.Get(); err != nil {
						b.Errorf("Get: %v", err)
						return
					}
					if err := h.Free(); err != nil {
						b.Errorf("Free: %v", err)
					}
				}
			}(iters)
		}
		wg.Wait()
	}
}

// BenchmarkProbeModes compares the write-side probing strategies across
// fill levels and goroutine counts: "slot" pays one test-and-set per probed
// slot (and so loses probes at exactly the array's fill fraction), "word"
// claims any free bit of the probed 64-slot window with one load plus one
// fetch-or, so a trial fails only when the whole window is full. At 50% fill
// the modes are nearly tied (the first slot probe usually wins anyway); the
// word claim pulls ahead as fill grows. The fill=95 cells are the headline
// high-fill comparison recorded in benchmarks/latest.json.
func BenchmarkProbeModes(b *testing.B) {
	const capacity = 4 * 1000
	for _, mode := range []core.ProbeMode{core.ProbeSlot, core.ProbeWord} {
		for _, fill := range []int{50, 85, 95} {
			for _, goroutines := range []int{1, 8} {
				b.Run(fmt.Sprintf("probe=%s/fill=%d/g=%d", mode, fill, goroutines),
					probeModeBench(mode, 0, capacity, fill, goroutines))
			}
		}
	}
}

// BenchmarkProbeModesTightArray is the word-mode showcase: a space-tight
// ε = 0.25 main array (1.25n slots) at 95% fill, where a random slot probe
// loses roughly three times out of four while a word claim still finds a free
// bit in essentially every window. This is the regime the word-claim fast
// path exists for.
func BenchmarkProbeModesTightArray(b *testing.B) {
	const capacity = 4 * 1000
	for _, mode := range []core.ProbeMode{core.ProbeSlot, core.ProbeWord} {
		for _, goroutines := range []int{1, 8} {
			b.Run(fmt.Sprintf("probe=%s/fill=95/g=%d", mode, goroutines),
				probeModeBench(mode, 0.25, capacity, 95, goroutines))
		}
	}
}

// BenchmarkProbesPerBatchAblation measures the effect of the per-batch trial
// count c_i (the analysis uses a large constant, the implementation uses 1).
func BenchmarkProbesPerBatchAblation(b *testing.B) {
	const capacity = 4 * 1000
	for _, probes := range []int{1, 2, 4, 16} {
		probes := probes
		b.Run(fmt.Sprintf("c=%d", probes), func(b *testing.B) {
			arr := core.MustNew(core.Config{Capacity: capacity, ProbesPerBatch: probes, Seed: 31})
			prefillArray(b, arr, capacity/2)
			var (
				mu     sync.Mutex
				merged activity.ProbeStats
			)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := arr.Handle()
				for pb.Next() {
					if _, err := h.Get(); err != nil {
						b.Errorf("Get: %v", err)
						return
					}
					if err := h.Free(); err != nil {
						b.Errorf("Free: %v", err)
						return
					}
				}
				mu.Lock()
				merged.Merge(h.Stats())
				mu.Unlock()
			})
			b.StopTimer()
			reportProbeMetrics(b, merged)
		})
	}
}

// BenchmarkSoftwareTAS compares the LevelArray running on hardware
// compare-and-swap slots against the randomized read/write test-and-set
// construction the paper describes as the fallback for machines without a
// hardware primitive (Section 2).
func BenchmarkSoftwareTAS(b *testing.B) {
	const capacity = 2 * 1000
	configs := map[string]core.Config{
		"hardware": {Capacity: capacity, Seed: 41},
		"software": {Capacity: capacity, Seed: 41, SoftwareTAS: true},
	}
	for name, cfg := range configs {
		cfg := cfg
		b.Run(name, func(b *testing.B) {
			arr := core.MustNew(cfg)
			prefillArray(b, arr, capacity/2)
			var (
				mu     sync.Mutex
				merged activity.ProbeStats
			)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := arr.Handle()
				for pb.Next() {
					if _, err := h.Get(); err != nil {
						b.Errorf("Get: %v", err)
						return
					}
					if err := h.Free(); err != nil {
						b.Errorf("Free: %v", err)
						return
					}
				}
				mu.Lock()
				merged.Merge(h.Stats())
				mu.Unlock()
			})
			b.StopTimer()
			reportProbeMetrics(b, merged)
		})
	}
}

// BenchmarkApplications measures registration cost end to end inside the
// motivating applications (memory reclamation, STM, flat combining, barrier)
// with the registry backed by the LevelArray vs the deterministic scan.
func BenchmarkApplications(b *testing.B) {
	for _, algo := range []registry.Algorithm{registry.LevelArray, registry.Deterministic} {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) {
			var totalProbes, totalRegs float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Applications(experiments.ApplicationsConfig{
					Workers:      4,
					OpsPerWorker: 500,
					Algorithms:   []registry.Algorithm{algo},
					Seed:         uint64(i + 1),
				})
				if err != nil {
					b.Fatalf("Applications: %v", err)
				}
				for _, row := range res.Rows {
					totalProbes += float64(row.Registration.TotalProbes)
					totalRegs += float64(row.Registration.Ops)
				}
			}
			if totalRegs > 0 {
				b.ReportMetric(totalProbes/totalRegs, "probes/registration")
			}
		})
	}
}

// BenchmarkAdopt measures the slot-adoption path used to hand registrations
// over and to set up healing experiments.
func BenchmarkAdopt(b *testing.B) {
	arr := core.MustNew(core.Config{Capacity: 1024, Seed: 37})
	h := arr.Handle().(*core.Handle)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Adopt(i % arr.Layout().MainSize()); err != nil {
			b.Fatalf("Adopt: %v", err)
		}
		if err := h.Free(); err != nil {
			b.Fatalf("Free: %v", err)
		}
	}
}

// BenchmarkHealingConvergence measures, via the balance package, how quickly
// an overcrowded batch drains as a function of capacity (an ablation on the
// self-healing speed the paper notes is faster than the analysis predicts).
func BenchmarkHealingConvergence(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var totalOps float64
			healed := 0
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig3Healing(experiments.HealingConfig{
					Capacity:      n,
					SnapshotEvery: n / 2,
					Snapshots:     32,
					Seed:          uint64(i + 1),
				})
				if err != nil {
					b.Fatalf("Fig3Healing: %v", err)
				}
				if res.HealedAfter >= 0 {
					totalOps += float64(res.Snapshots[res.HealedAfter].Step)
					healed++
				}
			}
			if healed > 0 {
				b.ReportMetric(totalOps/float64(healed), "ops-to-heal")
			}
		})
	}
}

// leaseBench measures one Acquire+Release pair through the lease manager at
// the given TTL with exactly g goroutines churning, comparable to the raw
// handle Get+Free benchmarks: the delta over those is the cost of leasing
// (token mint, entry transition, wheel insert for finite TTLs).
func leaseBench(ttl time.Duration, capacity, goroutines int) func(b *testing.B) {
	return func(b *testing.B) {
		arr := core.MustNew(core.Config{Capacity: capacity, Seed: 71})
		leasePairs(b, lease.MustNewManager(arr, lease.Config{TickInterval: 100 * time.Millisecond}), ttl, goroutines)
	}
}

// leasePairs starts mgr and times b.N Acquire+Release pairs split over the
// given number of goroutines, closing mgr afterwards.
func leasePairs(b *testing.B, mgr *lease.Manager, ttl time.Duration, goroutines int) {
	mgr.Start()
	defer mgr.Close()
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < goroutines; w++ {
		iters := b.N / goroutines
		if w < b.N%goroutines {
			iters++
		}
		wg.Add(1)
		go func(iters int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l, err := mgr.Acquire(ttl)
				if err != nil {
					b.Errorf("Acquire: %v", err)
					return
				}
				if err := mgr.Release(l.Name, l.Token); err != nil {
					b.Errorf("Release: %v", err)
					return
				}
			}
		}(iters)
	}
	wg.Wait()
}

// BenchmarkLeaseAcquireRelease compares the lease manager's session cost for
// infinite leases (no deadline, no wheel traffic) against finite-TTL leases
// (deadline computation plus a hashed-wheel insert per acquire), at 1 and 8
// goroutines.
func BenchmarkLeaseAcquireRelease(b *testing.B) {
	const capacity = 4 * 1000
	for _, tc := range []struct {
		name string
		ttl  time.Duration
	}{
		{"ttl=inf", 0},
		{"ttl=1s", time.Second},
	} {
		for _, goroutines := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/g=%d", tc.name, goroutines),
				leaseBench(tc.ttl, capacity, goroutines))
		}
	}
}

// BenchmarkLeaseWAL is the lease+WAL rung: BenchmarkLeaseAcquireRelease's
// ttl=inf pair with both transitions journaled to a wal.Store in b.TempDir()
// (TMPDIR=/dev/shm keeps it off the host disk). Under sync=always each
// transition waits for a group-commit fsync that concurrent goroutines share,
// reported as appends/fsync; sync=never only writes and is the control. The
// fsync cost follows the host's storage, so the rung is not in baseline.json.
func BenchmarkLeaseWAL(b *testing.B) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncNever} {
		for _, goroutines := range []int{1, 8} {
			b.Run(fmt.Sprintf("sync=%s/g=%d", policy, goroutines), func(b *testing.B) {
				store, err := wal.Open(b.TempDir(), policy, 0)
				if err != nil {
					b.Fatalf("wal.Open: %v", err)
				}
				defer store.Close()
				arr := core.MustNew(core.Config{Capacity: 4 * 1000, Seed: 71})
				mgr := lease.MustNewManager(arr, lease.Config{TickInterval: 100 * time.Millisecond, Journal: store})
				leasePairs(b, mgr, 0, goroutines)
				if c := store.Counters(); c.Syncs > 0 {
					b.ReportMetric(float64(c.Appends)/float64(c.Syncs), "appends/fsync")
				}
			})
		}
	}
}

// BenchmarkLeaseServiceLoopback measures one acquire+release session over
// the HTTP loopback service (two JSON POSTs through the full
// server -> lease -> shard -> core stack), with g concurrent clients.
func BenchmarkLeaseServiceLoopback(b *testing.B) {
	for _, goroutines := range []int{1, 8} {
		goroutines := goroutines
		b.Run(fmt.Sprintf("g=%d", goroutines), func(b *testing.B) {
			arr := shard.MustNew(shard.Config{Shards: 4, Capacity: 4096, Seed: 71})
			mgr := lease.MustNewManager(arr, lease.Config{TickInterval: 100 * time.Millisecond})
			mgr.Start()
			defer mgr.Close()
			srv := httptest.NewServer(server.New(mgr, server.Config{}))
			defer srv.Close()
			client := server.NewClient(srv.URL, nil)
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < goroutines; w++ {
				iters := b.N / goroutines
				if w < b.N%goroutines {
					iters++
				}
				wg.Add(1)
				go func(iters int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						l, status, _, err := client.Acquire(60_000)
						if err != nil || status != 200 {
							b.Errorf("acquire: status %d err %v", status, err)
							return
						}
						if status, err := client.Release(l.Name, l.Token); err != nil || status != 200 {
							b.Errorf("release: status %d err %v", status, err)
							return
						}
					}
				}(iters)
			}
			wg.Wait()
		})
	}
}

// startWireService boots the full service stack (server -> lease -> shard ->
// core) behind a real TCP loopback listener speaking the binary wire
// protocol, and returns its address.
func startWireService(b *testing.B) (addr string, done func()) {
	return startWireServiceTraced(b, nil)
}

// startWireServiceTraced is startWireService with a flight recorder installed
// on the wire server (nil = untraced), for the trace-overhead A/B benchmark.
func startWireServiceTraced(b *testing.B, rec *trace.Recorder) (addr string, done func()) {
	b.Helper()
	arr := shard.MustNew(shard.Config{Shards: 4, Capacity: 4096, Seed: 71})
	mgr := lease.MustNewManager(arr, lease.Config{TickInterval: 100 * time.Millisecond})
	mgr.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		b.Fatalf("wire listener: %v", err)
	}
	srv := wire.NewServer(server.NewWireBackend(mgr, server.Config{Tracer: rec}))
	srv.SetTracer(rec)
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		_ = srv.Close()
		mgr.Close()
	}
}

// BenchmarkWireServiceLoopback is the wire-protocol counterpart of
// BenchmarkLeaseServiceLoopback: one acquire+release session as two binary
// frames over a single pooled connection, with g concurrent clients sharing
// it (g=8 exercises pipelining and write-combining on one socket). The
// ns/op delta against the HTTP benchmark is the network tax this protocol
// exists to close.
func BenchmarkWireServiceLoopback(b *testing.B) {
	for _, goroutines := range []int{1, 8} {
		goroutines := goroutines
		b.Run(fmt.Sprintf("g=%d", goroutines), func(b *testing.B) {
			addr, done := startWireService(b)
			defer done()
			wc := wire.NewClient(addr, nil)
			defer wc.Close()
			client := server.NewWireClient(wc)
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < goroutines; w++ {
				iters := b.N / goroutines
				if w < b.N%goroutines {
					iters++
				}
				wg.Add(1)
				go func(iters int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						l, status, _, err := client.Acquire(60_000)
						if err != nil || status != 200 {
							b.Errorf("acquire: status %d err %v", status, err)
							return
						}
						if status, err := client.Release(l.Name, l.Token); err != nil || status != 200 {
							b.Errorf("release: status %d err %v", status, err)
							return
						}
					}
				}(iters)
			}
			wg.Wait()
		})
	}
}

// BenchmarkWireServiceTraceAB is the flight-recorder overhead gate, run by
// scripts/bench.sh --trace-ab: the same acquire+release session as
// BenchmarkWireServiceLoopback g=8 under three recorder states. "none" has
// no recorder installed; "off" has one installed but disabled (the default
// production shape — per frame it costs one atomic load and a nil-span
// check); "on" records every span with full phase attribution. The gate
// holds off within 2% of none and on within 10%.
func BenchmarkWireServiceTraceAB(b *testing.B) {
	const goroutines = 8
	for _, mode := range []string{"none", "off", "on"} {
		var rec *trace.Recorder
		switch mode {
		case "off":
			rec = trace.New(trace.Config{Enabled: false})
		case "on":
			rec = trace.New(trace.Config{Enabled: true})
		}
		b.Run("trace="+mode, func(b *testing.B) {
			addr, done := startWireServiceTraced(b, rec)
			defer done()
			wc := wire.NewClient(addr, nil)
			defer wc.Close()
			client := server.NewWireClient(wc)
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < goroutines; w++ {
				iters := b.N / goroutines
				if w < b.N%goroutines {
					iters++
				}
				wg.Add(1)
				go func(iters int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						l, status, _, err := client.Acquire(60_000)
						if err != nil || status != 200 {
							b.Errorf("acquire: status %d err %v", status, err)
							return
						}
						if status, err := client.Release(l.Name, l.Token); err != nil || status != 200 {
							b.Errorf("release: status %d err %v", status, err)
							return
						}
					}
				}(iters)
			}
			wg.Wait()
		})
	}
}

// BenchmarkWireBatchLoopback measures the batched session shape: one
// AcquireN frame granting 64 leases and one ReleaseN frame returning them,
// amortizing the wire round trip over the whole batch. ns/lease-op is the
// amortized per-lease cost (128 lease operations per iteration).
func BenchmarkWireBatchLoopback(b *testing.B) {
	const batch = 64
	addr, done := startWireService(b)
	defer done()
	wc := wire.NewClient(addr, nil)
	defer wc.Close()
	client := server.NewWireClient(wc)
	grants := make([]server.GrantResponse, 0, batch)
	refs := make([]server.LeaseRef, 0, batch)
	results := make([]server.RenewResult, 0, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var status int
		var err error
		grants, status, _, err = client.AcquireBatch(batch, 60_000, grants[:0])
		if err != nil || status != 200 || len(grants) != batch {
			b.Fatalf("AcquireBatch: status %d, %d grants, err %v", status, len(grants), err)
		}
		refs = refs[:0]
		for _, g := range grants {
			refs = append(refs, server.LeaseRef{Name: g.Name, Token: g.Token})
		}
		results, status, err = client.ReleaseBatch(refs, results[:0])
		if err != nil || status != 200 {
			b.Fatalf("ReleaseBatch: status %d err %v", status, err)
		}
		for j, r := range results {
			if r.Status != 200 {
				b.Fatalf("release item %d: status %d", j, r.Status)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*batch), "ns/lease-op")
}

// BenchmarkServiceAB is the HTTP-vs-wire A/B pair behind scripts/bench.sh
// --ab: the identical workload (8 clients churning acquire+release sessions
// against the identical service stack) over both transports, so the ns/op
// ratio is the wire protocol's speedup. Only the transport differs — JSON
// POSTs over per-request HTTP handling vs binary frames pipelined on one
// pooled connection.
func BenchmarkServiceAB(b *testing.B) {
	const goroutines = 8
	session := func(b *testing.B, api server.LeaseAPI) {
		var wg sync.WaitGroup
		b.ResetTimer()
		for w := 0; w < goroutines; w++ {
			iters := b.N / goroutines
			if w < b.N%goroutines {
				iters++
			}
			wg.Add(1)
			go func(iters int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					l, status, _, err := api.Acquire(60_000)
					if err != nil || status != 200 {
						b.Errorf("acquire: status %d err %v", status, err)
						return
					}
					if status, err := api.Release(l.Name, l.Token); err != nil || status != 200 {
						b.Errorf("release: status %d err %v", status, err)
						return
					}
				}
			}(iters)
		}
		wg.Wait()
	}
	b.Run("proto=http", func(b *testing.B) {
		arr := shard.MustNew(shard.Config{Shards: 4, Capacity: 4096, Seed: 71})
		mgr := lease.MustNewManager(arr, lease.Config{TickInterval: 100 * time.Millisecond})
		mgr.Start()
		defer mgr.Close()
		srv := httptest.NewServer(server.New(mgr, server.Config{}))
		defer srv.Close()
		session(b, server.NewClient(srv.URL, nil))
	})
	b.Run("proto=wire", func(b *testing.B) {
		addr, done := startWireService(b)
		defer done()
		wc := wire.NewClient(addr, nil)
		defer wc.Close()
		session(b, server.NewWireClient(wc))
	})
}

// BenchmarkLaloadLoopbackSmoke is the laload loopback smoke run in benchmark
// form: each iteration drives one full closed-loop load run (3000 acquires,
// 8 clients, 10% crash fraction, 20% renews) against an in-process service
// and fails the benchmark on any lease-contract violation. ns/op is the wall
// time of one complete verified run — including the post-run expiry drain —
// so the recorded number tracks the end-to-end health of the service stack
// rather than a single hot path.
func BenchmarkLaloadLoopbackSmoke(b *testing.B) {
	arr := shard.MustNew(shard.Config{Shards: 4, Capacity: 2048, Seed: 71})
	mgr := lease.MustNewManager(arr, lease.Config{TickInterval: 20 * time.Millisecond})
	mgr.Start()
	defer mgr.Close()
	srv := httptest.NewServer(server.New(mgr, server.Config{DefaultTTL: time.Second}))
	defer srv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := server.RunLoad(server.LoadConfig{
			BaseURL:      srv.URL,
			Clients:      8,
			Acquires:     3000,
			TTL:          300 * time.Millisecond,
			HoldMean:     100 * time.Microsecond,
			CrashPercent: 10,
			RenewPercent: 20,
			Seed:         uint64(i) + 1,
		})
		if err != nil {
			b.Fatalf("RunLoad: %v", err)
		}
		if v := report.Violations(); v != nil {
			b.Fatalf("lease contract violated: %v", v)
		}
	}
}

// BenchmarkClusterRouteLoopback measures one acquire+release session routed
// through a 3-node in-process cluster (table lookup, epoch header, owner
// dispatch, two JSON POSTs through node -> lease -> core), with g concurrent
// routed clients' goroutines sharing one cluster.Client.
func BenchmarkClusterRouteLoopback(b *testing.B) {
	for _, goroutines := range []int{1, 8} {
		goroutines := goroutines
		b.Run(fmt.Sprintf("g=%d", goroutines), func(b *testing.B) {
			local, err := cluster.StartLocal(cluster.LocalConfig{
				Nodes:      3,
				Partitions: 8,
				Capacity:   4096,
				Seed:       71,
				Node: cluster.NodeConfig{
					Lease:      lease.Config{TickInterval: 100 * time.Millisecond},
					DefaultTTL: time.Minute,
					MaxTTL:     time.Minute,
				},
			})
			if err != nil {
				b.Fatalf("StartLocal: %v", err)
			}
			defer local.Close()
			client, err := cluster.NewClient(cluster.ClientConfig{Targets: local.Targets()})
			if err != nil {
				b.Fatalf("NewClient: %v", err)
			}
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < goroutines; w++ {
				iters := b.N / goroutines
				if w < b.N%goroutines {
					iters++
				}
				wg.Add(1)
				go func(iters int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						g, status, _, err := client.Acquire(60_000)
						if err != nil || status != 200 {
							b.Errorf("acquire: status %d err %v", status, err)
							return
						}
						if status, err := client.Release(g.Name, g.Token); err != nil || status != 200 {
							b.Errorf("release: status %d err %v", status, err)
							return
						}
					}
				}(iters)
			}
			wg.Wait()
		})
	}
}

// calSink keeps the calibration loop's result observable so the compiler
// cannot elide the work.
var calSink uint64

// calMem is the calibration benchmark's scatter-read target: 8 MiB, well past
// L2, so the anchor samples the same cache/memory subsystem the probe-loop
// benchmarks live in, not just the ALU.
var calMem []uint64

// BenchmarkCalibration is the regression gate's machine-speed anchor: a fixed
// blend of integer work (splitmix64 rounds) and dependent scatter reads over
// an 8 MiB array, touching no levelarray code path. The gated benchmarks are
// probe loops over large arrays, so the anchor must track both CPU speed and
// memory-subsystem contention — a pure-register spin stays fast while a noisy
// co-tenant trashes the cache, and would mis-scale the baseline exactly when
// scaling matters most. The gate in scripts/bench.sh multiplies the committed
// baseline by the ratio of this benchmark's ns/op now vs at baseline-
// recording time, so "5% slower" means slower relative to the machine, not
// relative to whatever hardware recorded the baseline.
func BenchmarkCalibration(b *testing.B) {
	const words = 1 << 20 // 8 MiB of uint64
	if calMem == nil {
		calMem = make([]uint64, words)
		for i := range calMem {
			calMem[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
	}
	var acc uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := uint64(i)
		for r := 0; r < 64; r++ {
			x += 0x9E3779B97F4A7C15
			z := x
			z ^= z >> 30
			z *= 0xBF58476D1CE4E5B9
			z ^= z >> 27
			z *= 0x94D049BB133111EB
			z ^= z >> 31
			// Dependent scatter read: the next index derives from the loaded
			// value, so the loop pays real memory latency every round.
			x += calMem[z&(words-1)]
			acc += z
		}
	}
	calSink = acc
}
