package modules

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ozz/internal/kernel"
	"ozz/internal/sched"
	"ozz/internal/trace"
)

// TestRegistryMetadata validates the corpus registry invariants the
// harnesses rely on: unique bug IDs and switches, well-formed tables,
// parseable seeds, and implementations for every template.
func TestRegistryMetadata(t *testing.T) {
	ids := map[string]bool{}
	switches := map[string]bool{}
	t3, t4 := 0, 0
	for _, b := range AllBugs() {
		if ids[b.ID] {
			t.Errorf("duplicate bug ID %s", b.ID)
		}
		ids[b.ID] = true
		if switches[b.Switch] {
			t.Errorf("duplicate switch %s", b.Switch)
		}
		switches[b.Switch] = true
		if b.Title == "" && b.SoftTitle == "" {
			t.Errorf("bug %s has no expected title", b.ID)
		}
		switch b.Table {
		case 3:
			t3++
		case 4:
			t4++
		}
	}
	if t3 != 11 {
		t.Errorf("Table 3 corpus has %d bugs, want 11", t3)
	}
	if t4 != 9 {
		t.Errorf("Table 4 corpus has %d bugs, want 9", t4)
	}
}

// TestSeedsParseAndRunClean: every module's seeds parse against its target
// and execute crash-free on the fixed kernel.
func TestSeedsParseAndRunClean(t *testing.T) {
	for _, m := range All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			target := Target(m.Name)
			for si, src := range m.Seeds {
				p, err := target.Parse(src)
				if err != nil {
					t.Fatalf("seed %d: %v", si, err)
				}
				k := kernel.New(4)
				mods := Build(k, nil, m.Name)
				returns := make([]uint64, len(p.Calls))
				task := k.NewTask(0)
				s := sched.NewSession(sched.Sequential{})
				s.Spawn(0, 0, func(st *sched.Task) {
					task.Bind(st)
					for ci := range p.Calls {
						c := &p.Calls[ci]
						args := make([]uint64, len(c.Args))
						for ai, a := range c.Args {
							if a.Res {
								args[ai] = returns[a.Ref]
							} else {
								args[ai] = a.Val
							}
						}
						in := mods.Lookup(c.Def)
						if in == nil {
							t.Errorf("seed %d: no impl for %s", si, c.Def.Name)
							return
						}
						returns[ci] = in.Call(c.Def.Nr, task, args)
						task.SyscallReturn()
					}
				})
				if aborted := s.Run(); aborted != nil {
					t.Fatalf("seed %d crashed on the fixed kernel: %v", si, aborted)
				}
			}
		})
	}
}

// TestEveryTemplateImplemented: every registered template dispatches to
// its module, and every implementation tolerates an invalid handle
// (EBADF, no crash).
func TestEveryTemplateImplemented(t *testing.T) {
	for _, m := range All() {
		k := kernel.New(4)
		mods := Build(k, nil, m.Name)
		for i, d := range m.Defs {
			if d.Nr != i || d.Module != m.Name {
				t.Errorf("%s: template %s has Nr %d, module %q; want %d, %q", m.Name, d.Name, d.Nr, d.Module, i, m.Name)
				continue
			}
			if len(d.Args) == 0 || d.Ret != "" {
				continue // producers need no handle check
			}
			// Call with a bogus handle inside a session.
			task := k.NewTask(0)
			s := sched.NewSession(sched.Sequential{})
			args := make([]uint64, len(d.Args))
			args[0] = 999 // invalid resource
			s.Spawn(task.ID+100, 0, func(st *sched.Task) {
				task.Bind(st)
				if ret := mods.Lookup(d).Call(d.Nr, task, args); ret != EBADF && int64(ret) >= 0 {
					// Non-error success on a bogus handle would be
					// a module bug.
					t.Errorf("%s(bogus) returned %d, want an errno", d.Name, int64(ret))
				}
				task.SyscallReturn()
			})
			if aborted := s.Run(); aborted != nil {
				t.Errorf("%s(bogus handle) crashed: %v", d.Name, aborted)
			}
		}
	}
}

// callTables maps each module to its call table.
var callTables = map[string]any{
	"bpf": bpfCalls, "btrfs": btrfsCalls, "fdtable": fdCalls, "filemap": fmCalls,
	"gsm": gsmCalls, "irdma": irdmaCalls, "nbd": nbdCalls, "percpu": pcCalls,
	"rcudev": rcuCalls, "rculist": rclCalls, "rds": rdsCalls, "rustsync": rustCalls,
	"sbitmap": sbCalls, "seqtime": seqCalls, "smc": smcCalls, "sqring": sqCalls,
	"tls": tlsCalls, "unixsock": unixCalls, "vfs": vfsCalls, "vlan": vlanCalls,
	"vmci": vmciCalls, "watchqueue": wqCalls, "xsk": xskCalls,
}

// TestCallTablesMatchDefs: each module's call table has one entry per
// template, in Defs order. An entry's method is named after its def: the
// def name without underscores ends with the method name, ignoring case
// (tls_get_error is getError), so swapping two entries fails.
func TestCallTablesMatchDefs(t *testing.T) {
	if len(callTables) != len(All()) {
		t.Errorf("%d call tables for %d modules", len(callTables), len(All()))
	}
	for _, m := range All() {
		tbl, ok := callTables[m.Name]
		if !ok {
			t.Errorf("%s: no call table", m.Name)
			continue
		}
		v := reflect.ValueOf(tbl)
		if v.Len() != len(m.Defs) {
			t.Errorf("%s: call table has %d entries for %d templates", m.Name, v.Len(), len(m.Defs))
			continue
		}
		for i, d := range m.Defs {
			fn := runtime.FuncForPC(v.Index(i).Pointer()).Name()
			method := fn[strings.LastIndex(fn, ".")+1:]
			if !strings.HasSuffix(strings.ReplaceAll(d.Name, "_", ""), strings.ToLower(method)) {
				t.Errorf("%s: entry %d is %s, not the method for %s", m.Name, i, fn, d.Name)
			}
		}
	}
}

// TestSetLookup: a def resolves to its module's instance, and to nil
// when the set lacks its module.
func TestSetLookup(t *testing.T) {
	k := kernel.New(4)
	mods := Build(k, nil, "tls", "watchqueue")
	if in := mods.Lookup(Target("watchqueue").Lookup("wq_create")); in == nil {
		t.Fatal("a watchqueue def found no instance")
	} else if _, ok := in.(*wqInstance); !ok {
		t.Fatalf("a watchqueue def resolved to %T", in)
	}
	if in := mods.Lookup(Target("vfs").Lookup("vfs_open")); in != nil {
		t.Fatalf("a vfs def resolved to %T on a set without vfs", in)
	}
}

// TestResTableInlineAndOverflow: handles past the inline array resolve
// like the ones inside it, and bad handles fail.
func TestResTableInlineAndOverflow(t *testing.T) {
	var r resTable
	for i := 1; i <= 3*resInline; i++ {
		if h := r.add(trace.Addr(100 * i)); h != uint64(i) {
			t.Fatalf("add %d returned handle %d", i, h)
		}
	}
	for i := 1; i <= 3*resInline; i++ {
		if a, ok := r.get(uint64(i)); !ok || a != trace.Addr(100*i) {
			t.Errorf("get(%d) = %d, %v; want %d", i, a, ok, 100*i)
		}
	}
	for _, h := range []uint64{0, 3*resInline + 1, ^uint64(0)} {
		if _, ok := r.get(h); ok {
			t.Errorf("get(%d) resolved a bad handle", h)
		}
	}
}

// TestSwitchesBelongToTheirModule: each bug's switch prefix names its
// module, so Build applies the right variants.
func TestSwitchesBelongToTheirModule(t *testing.T) {
	alias := map[string]string{
		"unixsock": "unix",    // historic switch prefix
		"rcudev":   "rcu",     // substrate-named prefixes
		"seqtime":  "seqlock", //
	}
	_ = alias["irdma"] // irdma's switch prefix matches its module name
	for _, m := range All() {
		prefix := m.Name
		if a, ok := alias[m.Name]; ok {
			prefix = a
		}
		for _, b := range m.Bugs {
			if !strings.HasPrefix(b.Switch, prefix+":") {
				t.Errorf("bug %s switch %q does not match module %s", b.ID, b.Switch, m.Name)
			}
			if b.Module != m.Name {
				t.Errorf("bug %s records module %q, registered under %q", b.ID, b.Module, m.Name)
			}
		}
	}
}

// TestSiteNamesResolve: every registered instruction site renders a
// symbolic name (reports depend on this).
func TestSiteNamesResolve(t *testing.T) {
	if got := SiteName(watchqueueBase + 1); !strings.Contains(got, "post_one_notification") {
		t.Errorf("SiteName = %q", got)
	}
	if got := SiteName(0xdddddd); !strings.HasPrefix(got, "instr#") {
		t.Errorf("unknown site = %q", got)
	}
}

// TestTargetCoversAllModules: the merged target exposes every module's
// templates, and per-module targets are disjoint subsets.
func TestTargetCoversAllModules(t *testing.T) {
	all := Target()
	total := 0
	for _, m := range All() {
		total += len(m.Defs)
		sub := Target(m.Name)
		for _, d := range sub.Defs {
			if all.Lookup(d.Name) == nil {
				t.Errorf("template %s missing from the merged target", d.Name)
			}
		}
	}
	if len(all.Defs) != total {
		t.Errorf("merged target has %d defs, modules provide %d", len(all.Defs), total)
	}
}

// TestBuildUnknownModulePanics guards the harness against typos.
func TestBuildUnknownModulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build(unknown) did not panic")
		}
	}()
	k := kernel.New(2)
	Build(k, nil, "no_such_module")
}

// TestFindBug resolves switches.
func TestFindBug(t *testing.T) {
	if b, ok := FindBug("rds:clear_bit_unlock"); !ok || b.ID != "T3#1" {
		t.Fatalf("FindBug = %+v/%v", b, ok)
	}
	if _, ok := FindBug("nope"); ok {
		t.Fatal("FindBug(nope) succeeded")
	}
}

// runModuleCalls executes a call list directly against one module instance
// and returns the per-call results (helper for behavioural tests).
func runModuleCalls(t *testing.T, mod string, bugs BugSet, calls []struct {
	name string
	args []uint64
}) []uint64 {
	t.Helper()
	k := kernel.New(4)
	mods := Build(k, bugs, mod)
	target := Target(mod)
	rets := make([]uint64, len(calls))
	task := k.NewTask(0)
	s := sched.NewSession(sched.Sequential{})
	s.Spawn(0, 0, func(st *sched.Task) {
		task.Bind(st)
		for i, c := range calls {
			d := target.Lookup(c.name)
			rets[i] = mods.Lookup(d).Call(d.Nr, task, c.args)
			task.SyscallReturn()
		}
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("crash: %v", aborted)
	}
	return rets
}

type call = struct {
	name string
	args []uint64
}

// TestWatchqueueRingSemantics: the pipe ring delivers posted notifications
// in order and bounds capacity.
func TestWatchqueueRingSemantics(t *testing.T) {
	rets := runModuleCalls(t, "watchqueue", nil, []call{
		{"wq_create", nil},
		{"wq_post_notification", []uint64{1, 5}},
		{"wq_post_notification", []uint64{1, 6}},
		{"wq_pipe_read", []uint64{1}},
		{"wq_pipe_read", []uint64{1}},
		{"wq_pipe_read", []uint64{1}}, // empty now
	})
	if rets[3] != 5 || rets[4] != 6 {
		t.Errorf("reads returned %d,%d want 5,6", rets[3], rets[4])
	}
	if rets[5] != EAGAIN {
		t.Errorf("read from empty ring returned %d, want EAGAIN", int64(rets[5]))
	}
}

// TestRDSLockSemantics: the bit lock excludes and the staged message is
// consumed exactly once.
func TestRDSLockSemantics(t *testing.T) {
	rets := runModuleCalls(t, "rds", nil, []call{
		{"rds_socket", nil},
		{"rds_sendmsg", []uint64{1, 3}},
		{"rds_loop_xmit", []uint64{1}},
		{"rds_loop_xmit", []uint64{1}}, // nothing staged: returns 0
	})
	if rets[1] != EOK {
		t.Errorf("sendmsg = %d", int64(rets[1]))
	}
	if rets[2] != 0xda7a_0002 {
		t.Errorf("loop_xmit read %#x, want the last scatter element", rets[2])
	}
	if rets[3] != 0 {
		t.Errorf("second loop_xmit = %#x, want 0 (consumed)", rets[3])
	}
}

// TestTLSUpgradeSemantics: tls_init swaps the proto table exactly once and
// setsockopt dispatches through it.
func TestTLSUpgradeSemantics(t *testing.T) {
	rets := runModuleCalls(t, "tls", nil, []call{
		{"tls_socket", nil},
		{"sock_setsockopt", []uint64{1, 0}}, // pre-upgrade: base proto
		{"tls_init", []uint64{1}},
		{"tls_init", []uint64{1}},           // second upgrade refused
		{"sock_setsockopt", []uint64{1, 0}}, // post-upgrade: tls proto path
	})
	if rets[1] != EOK || rets[4] != EOK {
		t.Errorf("setsockopt = %d / %d", int64(rets[1]), int64(rets[4]))
	}
	if rets[3] != EBUSY {
		t.Errorf("double tls_init = %d, want EBUSY", int64(rets[3]))
	}
}

// TestGsmBoundsChecks: activating and configuring out-of-range DLCIs fails
// cleanly.
func TestGsmBoundsChecks(t *testing.T) {
	rets := runModuleCalls(t, "gsm", nil, []call{
		{"gsm_open", nil},
		{"gsm_dlci_config", []uint64{1, 0, 100}}, // not activated yet
		{"gsm_activate", []uint64{1, 0}},
		{"gsm_dlci_config", []uint64{1, 0, 100}},
	})
	if rets[1] != EINVAL {
		t.Errorf("config before activate = %d, want EINVAL", int64(rets[1]))
	}
	if rets[3] != EOK {
		t.Errorf("config after activate = %d, want EOK", int64(rets[3]))
	}
}

// TestSbitmapSemantics: gets walk the hint, resize shrinks.
func TestSbitmapSemantics(t *testing.T) {
	rets := runModuleCalls(t, "sbitmap", nil, []call{
		{"sb_init", nil},
		{"sb_get", []uint64{1}},
		{"sb_resize", []uint64{1, 2}},
		{"sb_get", []uint64{1}},
	})
	if rets[2] != EOK {
		t.Errorf("resize = %d", int64(rets[2]))
	}
	_ = rets
}

// TestBtrfsWaitCommitSemantics: a wait after commit returns immediately; a
// wait with no commit times out without reporting a hang (no commit = no
// lost wakeup).
func TestBtrfsWaitCommitSemantics(t *testing.T) {
	k := kernel.New(4)
	target := Target("btrfs")
	start, commit, wait := target.Lookup("btrfs_txn_start"), target.Lookup("btrfs_txn_commit"), target.Lookup("btrfs_txn_wait")
	mods := Build(k, nil, "btrfs")
	var rets []uint64
	task := k.NewTask(0)
	s := sched.NewSession(sched.Sequential{})
	s.Spawn(0, 0, func(st *sched.Task) {
		task.Bind(st)
		h := mods.Lookup(start).Call(start.Nr, task, nil)
		rets = append(rets, mods.Lookup(commit).Call(commit.Nr, task, []uint64{h}))
		rets = append(rets, mods.Lookup(wait).Call(wait.Nr, task, []uint64{h}))
		task.SyscallReturn()
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("crash: %v", aborted)
	}
	if rets[0] != EOK || rets[1] != EOK {
		t.Fatalf("commit/wait = %d/%d", int64(rets[0]), int64(rets[1]))
	}
	if len(k.Soft) != 0 {
		t.Fatalf("spurious hang report: %v", k.Soft)
	}
	// Wait with no commit: plain timeout, no hang report.
	k2 := kernel.New(4)
	mods2 := Build(k2, nil, "btrfs")
	task2 := k2.NewTask(0)
	s2 := sched.NewSession(sched.Sequential{})
	var ret uint64
	s2.Spawn(0, 0, func(st *sched.Task) {
		task2.Bind(st)
		h := mods2.Lookup(start).Call(start.Nr, task2, nil)
		ret = mods2.Lookup(wait).Call(wait.Nr, task2, []uint64{h})
		task2.SyscallReturn()
	})
	if aborted := s2.Run(); aborted != nil {
		t.Fatalf("crash: %v", aborted)
	}
	if int64(ret) >= 0 {
		t.Fatalf("wait without commit = %d, want -ETIME", int64(ret))
	}
	if len(k2.Soft) != 0 {
		t.Fatalf("timeout without commit reported a hang: %v", k2.Soft)
	}
}

// TestFilemapRoundTrip: sequential write/read returns the written data and
// enforces the page bound.
func TestFilemapRoundTrip(t *testing.T) {
	rets := runModuleCalls(t, "filemap", nil, []call{
		{"fm_open", nil},
		{"fm_read", []uint64{1}}, // empty: EAGAIN
		{"fm_write", []uint64{1, 0x11}},
		{"fm_write", []uint64{1, 0x22}},
		{"fm_read", []uint64{1}},
		{"fm_write", []uint64{1, 0x33}},
		{"fm_write", []uint64{1, 0x44}},
		{"fm_write", []uint64{1, 0x55}}, // page full
	})
	if rets[1] != EAGAIN {
		t.Errorf("empty read = %d", int64(rets[1]))
	}
	if rets[4] != 0x22 {
		t.Errorf("read = %#x, want the last written word", rets[4])
	}
	if rets[7] != EINVAL {
		t.Errorf("write past the page = %d, want EINVAL", int64(rets[7]))
	}
}

// TestRcuDevLifecycle: register/read/unregister with grace-period
// reclamation; reading after unregister is a clean EAGAIN, never a UAF.
func TestRcuDevLifecycle(t *testing.T) {
	rets := runModuleCalls(t, "rcudev", nil, []call{
		{"rcu_dev_create", nil},
		{"rcu_dev_read", []uint64{1}}, // nothing registered
		{"rcu_dev_register", []uint64{1, 0x7}},
		{"rcu_dev_read", []uint64{1}},
		{"rcu_dev_unregister", []uint64{1}},
		{"rcu_dev_read", []uint64{1}},
		{"rcu_dev_unregister", []uint64{1}}, // nothing to unregister
	})
	if rets[1] != EAGAIN || rets[5] != EAGAIN {
		t.Errorf("reads around registration = %d/%d", int64(rets[1]), int64(rets[5]))
	}
	if rets[3] == EAGAIN || int64(rets[3]) < 0 {
		t.Errorf("read of a registered entry = %d", int64(rets[3]))
	}
	if rets[6] != EAGAIN {
		t.Errorf("double unregister = %d", int64(rets[6]))
	}
}

// TestSeqtimeConsistentReads: sequential updates and reads keep the
// invariant; the reader never returns a torn pair on the fixed kernel.
func TestSeqtimeConsistentReads(t *testing.T) {
	rets := runModuleCalls(t, "seqtime", nil, []call{
		{"time_create", nil},
		{"time_update", []uint64{1}},
		{"time_update", []uint64{1}},
		{"time_read", []uint64{1}},
	})
	if rets[3] != 2 {
		t.Errorf("time_read = %d, want 2 seconds", rets[3])
	}
}
