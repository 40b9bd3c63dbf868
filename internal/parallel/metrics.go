package parallel

import (
	"sync/atomic"
	"time"

	"snip/internal/obs"
)

// poolMetrics holds the package-wide instrumentation handles. Map is
// called from many layers (experiments, PFI, cloud batch replays), so
// the handles live at package scope rather than threading a registry
// through every signature; Instrument swaps them atomically and every
// handle is nil-safe, so uninstrumented runs pay one atomic load.
type poolMetrics struct {
	tasks    *obs.Counter   // snip_parallel_tasks_total
	queued   *obs.Gauge     // snip_parallel_queue_depth
	inFlight *obs.Gauge     // snip_parallel_in_flight_workers
	taskNS   *obs.Histogram // snip_parallel_task_ns
	errs     *obs.Counter   // snip_parallel_task_errors_total
}

var metrics atomic.Pointer[poolMetrics]

// Instrument registers the fan-out series on reg and routes all
// subsequent Map calls through them. A nil registry detaches
// (the default). Instrumentation is observational only: it never
// changes scheduling, ordering, or error semantics.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		metrics.Store(nil)
		return
	}
	metrics.Store(&poolMetrics{
		tasks:    reg.Counter("snip_parallel_tasks_total", "work items executed by the fan-out pool"),
		queued:   reg.Gauge("snip_parallel_queue_depth", "work items not yet claimed by a worker"),
		inFlight: reg.Gauge("snip_parallel_in_flight_workers", "workers currently executing a task"),
		taskNS:   reg.Histogram("snip_parallel_task_ns", "per-task wall time in nanoseconds", obs.NanoBuckets()),
		errs:     reg.Counter("snip_parallel_task_errors_total", "work items that returned an error"),
	})
}

// observeTask records one completed work item.
func (m *poolMetrics) observeTask(start time.Time, err error) {
	m.tasks.Inc()
	m.taskNS.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		m.errs.Inc()
	}
}
