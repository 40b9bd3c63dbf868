package soc

import (
	"testing"

	"snip/internal/energy"
	"snip/internal/units"
)

func newTestSoC(policy IdlePolicy) (*SoC, *energy.Meter) {
	m := energy.NewMeter()
	return New(DefaultConfig(), m, policy), m
}

func TestExecuteChargesCPU(t *testing.T) {
	s, m := newTestSoC(nil)
	cfg := DefaultConfig()
	instr := int64(cfg.CPUFreqMHz * cfg.IPC * 1000) // exactly 1000 µs of work
	st := s.Execute(Work{CPUInstr: instr})
	if st.CPUTime < 999 || st.CPUTime > 1001 {
		t.Fatalf("cpu time %v, want ≈1000µs", st.CPUTime)
	}
	if m.BusyTime(energy.CPU) != st.CPUTime {
		t.Fatal("meter busy time mismatch")
	}
	if s.Now() != st.CPUTime {
		t.Fatalf("clock %v, want %v", s.Now(), st.CPUTime)
	}
}

func TestExecuteOverlapsCPUAndIP(t *testing.T) {
	s, m := newTestSoC(nil)
	cfg := DefaultConfig()
	instr := int64(cfg.CPUFreqMHz * cfg.IPC * 2000) // 2 ms CPU
	w := Work{
		CPUInstr: instr,
		IPCalls: []IPCall{{
			IP: energy.GPU, Op: "render", Duration: 5000 * units.Microsecond,
		}},
	}
	s.Execute(w)
	// The window is max(2ms, 5ms) = 5ms, not 7ms: CPU and GPU pipeline.
	if s.Now() < 4999 || s.Now() > 5001 {
		t.Fatalf("clock %v, want ≈5ms", s.Now())
	}
	if m.BusyTime(energy.GPU) != 5000 {
		t.Fatalf("GPU busy %v", m.BusyTime(energy.GPU))
	}
	if m.BusyTime(energy.CPU) < 1999 || m.BusyTime(energy.CPU) > 2001 {
		t.Fatalf("CPU busy %v", m.BusyTime(energy.CPU))
	}
}

func TestExecuteSerializesIPCalls(t *testing.T) {
	s, _ := newTestSoC(nil)
	w := Work{IPCalls: []IPCall{
		{IP: energy.GPU, Duration: 3000},
		{IP: energy.ISP, Duration: 4000},
	}}
	s.Execute(w)
	// IPs share the fabric: their busy times sum into the window.
	if s.Now() != 7000 {
		t.Fatalf("clock %v, want 7000µs", s.Now())
	}
}

func TestExecuteEmptyWork(t *testing.T) {
	s, m := newTestSoC(nil)
	s.Execute(Work{})
	if s.Now() != 0 || m.Total() != 0 {
		t.Fatal("empty work should cost nothing")
	}
}

func TestAdvanceToIdles(t *testing.T) {
	s, m := newTestSoC(nil)
	s.AdvanceTo(10 * units.Millisecond)
	if s.Now() != 10*units.Millisecond {
		t.Fatalf("clock %v", s.Now())
	}
	if m.Total() == 0 {
		t.Fatal("idle time should cost idle power")
	}
	// Display stays Active (always-on during gameplay).
	if m.BusyTime(energy.Display) != 10*units.Millisecond {
		t.Fatalf("display busy %v, want full window", m.BusyTime(energy.Display))
	}
	// Backwards is a no-op.
	before := m.Total()
	s.AdvanceTo(5 * units.Millisecond)
	if m.Total() != before || s.Now() != 10*units.Millisecond {
		t.Fatal("AdvanceTo went backwards")
	}
}

func TestSleepIdleIPsPolicySavesEnergy(t *testing.T) {
	sDefault, mDefault := newTestSoC(nil)
	sSleep, mSleep := newTestSoC(SleepIdleIPs{})
	sDefault.AdvanceTo(units.Second)
	sSleep.AdvanceTo(units.Second)
	if mSleep.Total() >= mDefault.Total() {
		t.Fatalf("sleep policy did not save energy: %v vs %v", mSleep.Total(), mDefault.Total())
	}
	// The GPU is exempt from power collapse (kept Idle, not Sleep).
	if mSleep.Energy(energy.GPU) != mDefault.Energy(energy.GPU) {
		t.Fatal("GPU should idle identically under both policies")
	}
	// The codecs must actually sleep.
	if mSleep.Energy(energy.VideoCodec) >= mDefault.Energy(energy.VideoCodec) {
		t.Fatal("codec did not sleep")
	}
}

func TestLookupOverheadScalesWithBytesAndProbes(t *testing.T) {
	s, _ := newTestSoC(nil)
	small := s.LookupOverhead(1, 16)
	big := s.LookupOverhead(1000, 64*units.KB)
	if small <= 0 {
		t.Fatal("lookup overhead should cost something")
	}
	if big <= small*10 {
		t.Fatalf("large lookup (%v) should cost much more than small (%v)", big, small)
	}
}

func TestWorkAddAndTotals(t *testing.T) {
	var w Work
	w.Add(Work{CPUInstr: 10, MemBytes: 100})
	w.Add(Work{CPUInstr: 5, IPCalls: []IPCall{{IP: energy.DSP, Duration: 7}}})
	if w.CPUInstr != 15 || w.MemBytes != 100 || len(w.IPCalls) != 1 {
		t.Fatalf("accumulated work wrong: %+v", w)
	}
	if w.TotalIPTime() != 7 {
		t.Fatalf("ip time %v", w.TotalIPTime())
	}
}

func TestMemoryBoundWindow(t *testing.T) {
	s, _ := newTestSoC(nil)
	cfg := DefaultConfig()
	// Enough memory traffic to dominate the window.
	bytes := units.Size(cfg.MemBytesPerMicro * 3000) // 3 ms of traffic
	s.Execute(Work{CPUInstr: 1000, MemBytes: bytes})
	if s.Now() < 2999 || s.Now() > 3001 {
		t.Fatalf("memory-bound window %v, want ≈3ms", s.Now())
	}
}
