/**
 * @file
 * The observers one run can arm, bundled for the run entry points
 * (runConfigFull, runWorkloadFull, runMultiTenant).
 */

#ifndef CORE_RUN_OBSERVERS_HH
#define CORE_RUN_OBSERVERS_HH

namespace gpummu {

class MemTraceWriter;
class SpanTracker;
class Telemetry;
class TraceSink;

/**
 * Observation-only hooks for one run; any subset may be null. An armed
 * one must outlive the run and belong to it alone (sweep points must
 * not share one). Only @c trace touches the stat registry: it adds its
 * health stats ("trace.*"). With @c trace and @c spans both armed,
 * each span's lifecycle also rides the sink as flow events.
 */
struct RunObservers
{
    TraceSink *trace = nullptr;
    Telemetry *telemetry = nullptr;
    SpanTracker *spans = nullptr;
    MemTraceWriter *memtrace = nullptr;
};

} // namespace gpummu

#endif // CORE_RUN_OBSERVERS_HH
