package events

import (
	"snip/internal/energy"
	"snip/internal/soc"
	"snip/internal/units"
)

// DeliveryCost returns the OS-side work of delivering one event: sensor
// hub processing of the underlying readings plus the Binder transaction
// copying the event object into the app. This cost applies to every
// scheme, including SNIP, which intercepts only after the event reaches
// the app (paper §V-B).
func DeliveryCost(e *Event) soc.Work {
	size := e.Size()
	return soc.Work{
		// Binder transaction + looper dispatch: ~18k instructions, plus a
		// copy cost proportional to the object size.
		CPUInstr: 18000 + int64(size)*4,
		MemBytes: size * 2, // copy in, copy out
		IPCalls: []soc.IPCall{{
			IP:        energy.SensorHub,
			Op:        "hub-process",
			InputHash: e.Hash(),
			Duration:  12 * units.Microsecond,
			MemBytes:  size,
		}},
	}
}

// DeliveryCostParts returns DeliveryCost's scalar components — total CPU
// instructions, total memory traffic (the Binder copies plus the hub
// call's), and the sensor hub's busy time — without materializing the
// Work's IPCalls slice. The fleet's per-event energy ledger charges
// delivery from these on a path pinned at 0 allocs/op;
// TestDeliveryCostPartsMatch pins the two forms to each other.
func DeliveryCostParts(e *Event) (cpuInstr int64, memBytes units.Size, hubBusy units.Time) {
	size := e.Size()
	return 18000 + int64(size)*4, size*2 + size, 12 * units.Microsecond
}
