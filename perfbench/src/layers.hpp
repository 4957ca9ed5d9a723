// Per-layer attribution of the traced run: turns the probes' spans,
// the program's own telemetry spans and the counters the program
// returns into the per-layer metrics, each named after the module that
// does the work (serve, shard, index, simd, core, hbmsim, persist).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "harness.hpp"
#include "persist/compactor.hpp"
#include "probes.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

/// Everything recorded while one measured phase ran.
struct PhaseTrace {
  std::vector<Recorder::Cell> cells;
  std::vector<Recorder::Query> queries;
  /// The program's telemetry spans (queue-wait, delta-scan, ...).
  std::vector<topk::telemetry::TraceSpan> spans;
};

/// Switches the probes and the program's tracer on (or off).
void set_tracing(bool on);

/// Collects and clears what was recorded since the last call.
[[nodiscard]] PhaseTrace take_phase_trace();

/// Tracing overhead in percent of untraced throughput: alternates
/// `pairs` windows of `window_seconds` with recording off and on over
/// the same index, `step()` running one closed-loop request and
/// returning the queries it completed.  Leaves tracing on.
[[nodiscard]] double tracing_overhead_pct(const std::function<std::size_t()>& step,
                                          double window_seconds, int pairs);

/// Model figures of the fpga-u280 device (hbmsim), when the workload
/// has one.
struct DeviceModel {
  double modelled_seconds = 0.0;
  double nnz_per_second = 0.0;
  std::uint64_t source_nnz = 0;
  int packet_capacity = 0;  ///< non-zeros per packet (B)
};

/// Inputs of report_layers beyond the phase traces.
struct LayerInputs {
  std::vector<PhaseTrace> phases;  ///< every measured phase
  /// The open-loop phases and their results, for queue wait, peak
  /// pending and the unattributed share; the last one is "high".
  std::vector<std::pair<const PhaseTrace*, const OpenLoopResult*>> open_loop;
  std::vector<topk::persist::CompactionReport> compactions;
  std::vector<double> mutation_us;
  std::uint64_t replica_failures = 0;
  double triad_bytes_per_second = 0.0;
  double overhead_pct = 0.0;
  std::optional<DeviceModel> device;
};

/// Emits every per-layer metric into out.layers — 0 for a layer the
/// workload does not exercise — so every traced run reports one set.
void report_layers(const LayerInputs& in, RunResult& out);

}  // namespace perfbench
