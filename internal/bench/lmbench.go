// Package bench implements the paper's evaluation harnesses: the
// LMBench-shaped microbenchmark of Table 5 (instrumented vs. plain kernel),
// the fuzzing-throughput comparison of §6.3.2 (OZZ vs. a syzkaller-style
// baseline), and text-table renderers for the evaluation tables.
package bench

import (
	"fmt"
	"strings"
	"time"

	"ozz/internal/kernel"
	"ozz/internal/sched"
	"ozz/internal/trace"
	"ozz/internal/vfs"
)

// LMBenchRow is one Table 5 row: the per-operation latency on the plain
// kernel and on the OEMU-instrumented kernel, and their ratio.
type LMBenchRow struct {
	Name     string
	BaseNs   float64
	InstrNs  float64
	Overhead float64
}

// workload is one LMBench test: body runs `iters` operations on a fresh
// kernel and returns the time spent in the measured region.
type workload struct {
	name string
	body func(k *kernel.Kernel, iters int) time.Duration
}

// runTimed executes fn on a single task inside a session and returns the
// measured duration fn reports.
func runTimed(k *kernel.Kernel, fn func(t *kernel.Task) time.Duration) time.Duration {
	task := k.NewTask(0)
	var d time.Duration
	s := sched.NewSession(sched.Sequential{})
	s.Spawn(0, 0, func(st *sched.Task) {
		task.Bind(st)
		d = fn(task)
	})
	if aborted := s.Run(); aborted != nil {
		panic(aborted)
	}
	return d
}

// alternate is a scheduling policy that switches between two tasks at every
// scheduling point — the context-switch workload.
type alternate struct{}

func (alternate) First(spawned int) int { return spawned }
func (alternate) OnYield(cur *sched.Task, _ trace.InstrID) (int, bool) {
	return 1 - cur.ID, true
}

// workloads mirrors Table 5's row set.
func workloads() []workload {
	return []workload{
		{"null", func(k *kernel.Kernel, iters int) time.Duration {
			fs := vfs.New(k)
			return runTimed(k, func(t *kernel.Task) time.Duration {
				start := time.Now()
				for i := 0; i < iters; i++ {
					fs.Getpid(t)
					t.SyscallReturn()
				}
				return time.Since(start)
			})
		}},
		{"stat", func(k *kernel.Kernel, iters int) time.Duration {
			fs := vfs.New(k)
			return runTimed(k, func(t *kernel.Task) time.Duration {
				fs.Close(t, fs.Creat(t, 0x51a7))
				start := time.Now()
				for i := 0; i < iters; i++ {
					fs.Stat(t, 0x51a7)
					t.SyscallReturn()
				}
				return time.Since(start)
			})
		}},
		{"open/close", func(k *kernel.Kernel, iters int) time.Duration {
			fs := vfs.New(k)
			return runTimed(k, func(t *kernel.Task) time.Duration {
				fs.Close(t, fs.Creat(t, 0x0f11))
				start := time.Now()
				for i := 0; i < iters; i++ {
					fd := fs.Open(t, 0x0f11)
					fs.Close(t, fd)
					t.SyscallReturn()
				}
				return time.Since(start)
			})
		}},
		{"File create", func(k *kernel.Kernel, iters int) time.Duration {
			fs := vfs.New(k)
			return runTimed(k, func(t *kernel.Task) time.Duration {
				start := time.Now()
				for i := 0; i < iters; i++ {
					fd := fs.Creat(t, uint64(i%16+1))
					fs.Close(t, fd)
					t.SyscallReturn()
					// Deletion kept outside the measured name reuse:
					// unlink so the directory never fills.
					fs.Unlink(t, uint64(i%16+1))
				}
				return time.Since(start)
			})
		}},
		{"File delete", func(k *kernel.Kernel, iters int) time.Duration {
			fs := vfs.New(k)
			return runTimed(k, func(t *kernel.Task) time.Duration {
				// Batched: create 16 untimed, unlink 16 timed —
				// keeps timer overhead out of the per-op figure.
				var total time.Duration
				for i := 0; i < iters; i += 16 {
					for n := uint64(1); n <= 16; n++ {
						fs.Close(t, fs.Creat(t, n))
					}
					start := time.Now()
					for n := uint64(1); n <= 16; n++ {
						fs.Unlink(t, n)
						t.SyscallReturn()
					}
					total += time.Since(start)
				}
				return total
			})
		}},
		{"ctxsw 2p/0k", func(k *kernel.Kernel, iters int) time.Duration {
			// Two tasks ping-pong through the scheduler. The handoff
			// itself exists on the plain kernel too (an explicit
			// Yield); the instrumented kernel additionally pays the
			// access callback on the shared word.
			t0, t1 := k.NewTask(0), k.NewTask(1)
			word := k.Mem.AllocZeroed(2)
			var d time.Duration
			s := sched.NewSession(alternate{})
			body := func(task *kernel.Task, site trace.InstrID) func(*sched.Task) {
				return func(st *sched.Task) {
					task.Bind(st)
					start := time.Now()
					for i := 0; i < iters; i++ {
						task.Store(site, word+trace.Addr(8*uint64(site-1)), uint64(i))
						st.Yield(site) // the context switch
					}
					if task.ID == 0 {
						d = time.Since(start)
					}
				}
			}
			s.Spawn(0, 0, body(t0, 1))
			s.Spawn(1, 1, body(t1, 2))
			if aborted := s.Run(); aborted != nil {
				panic(aborted)
			}
			return d
		}},
		{"pipe", func(k *kernel.Kernel, iters int) time.Duration {
			fs := vfs.New(k)
			return runTimed(k, func(t *kernel.Task) time.Duration {
				p := fs.NewPipe(t)
				start := time.Now()
				for i := 0; i < iters; i++ {
					p.Write(t, uint64(i))
					p.Read(t)
					t.SyscallReturn()
				}
				return time.Since(start)
			})
		}},
		{"unix", func(k *kernel.Kernel, iters int) time.Duration {
			fs := vfs.New(k)
			return runTimed(k, func(t *kernel.Task) time.Duration {
				// A socketpair round trip: two rings, one per direction.
				a, b := fs.NewPipe(t), fs.NewPipe(t)
				start := time.Now()
				for i := 0; i < iters; i++ {
					a.Write(t, uint64(i))
					a.Read(t)
					b.Write(t, uint64(i))
					b.Read(t)
					t.SyscallReturn()
				}
				return time.Since(start)
			})
		}},
		{"fork", func(k *kernel.Kernel, iters int) time.Duration {
			fs := vfs.New(k)
			return runTimed(k, func(t *kernel.Task) time.Duration {
				// A realistic parent: a dozen open descriptors whose
				// reference counts fork must walk.
				for n := uint64(1); n <= 12; n++ {
					fs.Creat(t, n)
				}
				start := time.Now()
				for i := 0; i < iters; i++ {
					fs.Fork(t)
					t.SyscallReturn()
				}
				return time.Since(start)
			})
		}},
		{"mmap", func(k *kernel.Kernel, iters int) time.Duration {
			fs := vfs.New(k)
			return runTimed(k, func(t *kernel.Task) time.Duration {
				start := time.Now()
				for i := 0; i < iters; i++ {
					r := fs.MmapTouch(t, 8)
					fs.Munmap(t, r)
					t.SyscallReturn()
				}
				return time.Since(start)
			})
		}},
	}
}

// RunLMBench measures every Table 5 workload with OEMU instrumentation off
// (the plain kernel) and on, over `iters` operations each, and returns the
// rows. The paper's absolute microseconds are testbed-specific; the
// reproducible quantity is the overhead column (paper: 3.0x-59.0x).
func RunLMBench(iters int) []LMBenchRow {
	var rows []LMBenchRow
	for _, w := range workloads() {
		measure := func(instrumented bool) float64 {
			k := kernel.New(4)
			k.Instrumented = instrumented
			if !instrumented {
				k.Mem.Sanitize = false // the plain kernel has no KASAN either
			}
			d := w.body(k, iters)
			return float64(d.Nanoseconds()) / float64(iters)
		}
		base := measure(false)
		instr := measure(true)
		over := 0.0
		if base > 0 {
			over = instr / base
		}
		rows = append(rows, LMBenchRow{Name: w.name, BaseNs: base, InstrNs: instr, Overhead: over})
	}
	return rows
}

// FormatLMBench renders the Table 5 text table.
func FormatLMBench(rows []LMBenchRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %14s %18s %10s\n", "Tests", "plain (ns/op)", "w/ OEMU (ns/op)", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %14.0f %18.0f %9.1fx\n", r.Name, r.BaseNs, r.InstrNs, r.Overhead)
	}
	return sb.String()
}
