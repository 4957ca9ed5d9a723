#include "layers.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

namespace perfbench {
namespace {

constexpr std::size_t kTraceCapacity = std::size_t{1} << 22;

std::vector<double> program_span_ms(
    const std::vector<topk::telemetry::TraceSpan>& spans,
    const std::string& name) {
  std::vector<double> out;
  for (const auto& span : spans) {
    if (span.name == name) {
      out.push_back(span.duration_seconds * 1e3);
    }
  }
  return out;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) {
    total += v;
  }
  return total;
}

/// Wall time covered by at least one of the intervals, in seconds.
double covered_seconds(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double open_start = 0.0;
  double open_end = -1.0;
  for (const auto& [start, end] : intervals) {
    if (start > open_end) {
      covered += std::max(0.0, open_end - open_start);
      open_start = start;
      open_end = end;
    } else {
      open_end = std::max(open_end, end);
    }
  }
  return covered + std::max(0.0, open_end - open_start);
}

/// Per query: the wall time its shard cells cover (in ms), keyed by
/// trace id.
std::map<std::uint64_t, double> cell_cover_ms(
    const std::vector<Recorder::Cell>& cells) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> by_trace;
  for (const auto& cell : cells) {
    by_trace[cell.trace].emplace_back(cell.start, cell.end);
  }
  std::map<std::uint64_t, double> out;
  for (auto& [trace, intervals] : by_trace) {
    out[trace] = covered_seconds(std::move(intervals)) * 1e3;
  }
  return out;
}

}  // namespace

void set_tracing(bool on) {
  recorder().set_enabled(on);
  if (on) {
    topk::telemetry::tracer().enable(kTraceCapacity);
  } else {
    topk::telemetry::tracer().disable();
  }
}

PhaseTrace take_phase_trace() {
  PhaseTrace phase;
  recorder().take(phase.cells, phase.queries);
  phase.spans = topk::telemetry::tracer().snapshot();
  topk::telemetry::tracer().clear();
  return phase;
}

double tracing_overhead_pct(const std::function<std::size_t()>& step,
                            double window_seconds, int pairs) {
  std::vector<double> untraced;
  std::vector<double> traced;
  for (int p = 0; p < pairs; ++p) {
    // ABBA order, so a drift during the measurement cancels.
    for (int half = 0; half < 2; ++half) {
      const bool on = (half == 1) != (p % 2 == 1);
      set_tracing(on);
      std::size_t done = 0;
      const double start = now_seconds();
      while (now_seconds() - start < window_seconds) {
        done += step();
      }
      const double qps = static_cast<double>(done) / (now_seconds() - start);
      (on ? traced : untraced).push_back(qps);
    }
  }
  set_tracing(true);
  (void)take_phase_trace();
  const double base = median(untraced);
  return base > 0.0 ? (base - median(traced)) / base * 100.0 : 0.0;
}

void report_layers(const LayerInputs& in, RunResult& out) {
  std::vector<Recorder::Cell> cells;
  std::vector<Recorder::Query> queries;
  std::vector<topk::telemetry::TraceSpan> spans;
  for (const PhaseTrace& phase : in.phases) {
    cells.insert(cells.end(), phase.cells.begin(), phase.cells.end());
    queries.insert(queries.end(), phase.queries.begin(), phase.queries.end());
    spans.insert(spans.end(), phase.spans.begin(), phase.spans.end());
  }

  // ---- serve: the engine's queue, at the high rate ----
  const PhaseTrace* high = in.open_loop.empty() ? nullptr : in.open_loop.back().first;
  const OpenLoopResult* high_result =
      in.open_loop.empty() ? nullptr : in.open_loop.back().second;
  out.layer("serve.queue_wait_ms.p50",
            high ? median(program_span_ms(high->spans, "queue-wait")) : 0.0,
            "ms");
  out.layer("serve.peak_pending",
            high_result ? static_cast<double>(high_result->peak_pending) : 0.0,
            "count");

  // ---- shard: per-cell scatter and the gather ----
  std::vector<double> cell_ms;
  std::vector<double> cell_k;
  std::map<std::uint64_t, double> kernel_ms_by_trace;
  std::uint64_t rescored = 0;
  std::uint64_t asked = 0;
  double kernel_seconds = 0.0;
  double kernel_bytes = 0.0;
  std::vector<double> packets;
  std::vector<double> max_core_packets;
  std::vector<double> rows_dropped;
  double device_seconds = 0.0;
  for (const auto& cell : cells) {
    const double seconds = cell.end - cell.start;
    if (cell.device) {
      packets.push_back(static_cast<double>(cell.device_stats.total_packets));
      max_core_packets.push_back(
          static_cast<double>(cell.device_stats.max_core_packets));
      rows_dropped.push_back(
          static_cast<double>(cell.device_stats.rows_dropped));
      device_seconds += seconds;
      continue;
    }
    cell_ms.push_back(seconds * 1e3);
    cell_k.push_back(cell.top_k);
    kernel_ms_by_trace[cell.trace] += seconds * 1e3;
    rescored += cell.rescored;
    asked += static_cast<std::uint64_t>(cell.top_k);
    kernel_seconds += seconds;
    kernel_bytes += static_cast<double>(cell.bytes);
  }
  std::vector<double> slowest_ms;
  std::vector<double> gathered;
  std::vector<double> delta_rows;
  std::vector<double> masked_rows;
  std::uint64_t failovers = in.replica_failures;
  for (const auto& query : queries) {
    topk::index::QueryResult view;
    view.stats = query.stats;
    if (const auto* shard = topk::index::shard_stats(view)) {
      slowest_ms.push_back(shard->slowest_seconds * 1e3);
      gathered.push_back(static_cast<double>(shard->gathered_candidates));
      failovers += shard->failovers;
    }
    if (const auto* tier = topk::index::mutable_stats(view)) {
      delta_rows.push_back(static_cast<double>(tier->delta_scanned));
      masked_rows.push_back(static_cast<double>(tier->masked_rows));
    }
  }
  out.layer("shard.cell_ms.p50", median(cell_ms), "ms");
  out.layer("shard.slowest_cell_ms.p50", median(slowest_ms), "ms");
  out.layer("shard.shard_k.mean", mean(cell_k), "count");
  out.layer("shard.gathered_candidates.mean", mean(gathered), "count");
  out.layer("shard.failovers", static_cast<double>(failovers), "count");

  // ---- index: the mutable tier's delta ----
  out.layer("index.delta_scan_ms.p50",
            median(program_span_ms(spans, "delta-scan")), "ms");
  out.layer("index.delta_rows.mean", mean(delta_rows), "count");
  out.layer("index.masked_rows.mean", mean(masked_rows), "count");
  out.layer("index.mutation_us.p50", median(in.mutation_us), "us");

  // ---- simd: the screen + rescore kernel in each cell ----
  std::vector<double> kernel_ms;
  for (const auto& [trace, ms] : kernel_ms_by_trace) {
    kernel_ms.push_back(ms);
  }
  const double bytes_per_s =
      kernel_seconds > 0.0 ? kernel_bytes / kernel_seconds : 0.0;
  out.layer("simd.kernel_ms.p50", median(kernel_ms), "ms");
  out.layer("simd.rescore_ratio",
            asked == 0 ? 0.0
                       : static_cast<double>(rescored) /
                             static_cast<double>(asked),
            "ratio");
  out.layer("simd.bytes_per_s", bytes_per_s, "B/s");
  out.layer("simd.ceiling_fraction",
            in.triad_bytes_per_second > 0.0
                ? bytes_per_s / in.triad_bytes_per_second
                : 0.0,
            "ratio");

  // ---- core: the BS-CSR packet stream of the simulated device ----
  const double total_packets = sum(packets);
  out.layer("core.packets_per_query", mean(packets), "count");
  out.layer("core.max_core_packets", mean(max_core_packets), "count");
  out.layer("core.packet_fill",
            in.device && !packets.empty()
                ? static_cast<double>(in.device->source_nnz) /
                      (mean(packets) * in.device->packet_capacity)
                : 0.0,
            "ratio");
  out.layer("core.rows_dropped.mean", mean(rows_dropped), "count");
  out.layer("core.host_us_per_packet",
            total_packets > 0.0 ? device_seconds * 1e6 / total_packets : 0.0,
            "us");

  // ---- hbmsim: the U280 timing model (simulated time) ----
  const DeviceModel model = in.device.value_or(DeviceModel{});
  out.layer("hbmsim.modelled_ms_per_query", model.modelled_seconds * 1e3,
            "ms");
  out.layer("hbmsim.gnnz_per_s", model.nnz_per_second / 1e9, "Gnnz/s");
  out.layer("hbmsim.modelled_qps",
            model.modelled_seconds > 0.0 ? 1.0 / model.modelled_seconds : 0.0,
            "1/s");

  // ---- persist: compaction phases (CompactionReport) ----
  std::vector<double> fold, build, save, load, snapshot, swap, total;
  for (const auto& report : in.compactions) {
    fold.push_back(report.fold_seconds);
    build.push_back(report.build_seconds);
    save.push_back(report.save_seconds);
    load.push_back(report.load_seconds);
    snapshot.push_back(report.snapshot_seconds * 1e3);
    swap.push_back(report.swap_seconds * 1e3);
    total.push_back(report.total_seconds);
  }
  out.layer("persist.fold_s", median(fold), "s");
  out.layer("persist.build_s", median(build), "s");
  out.layer("persist.save_s", median(save), "s");
  out.layer("persist.load_s", median(load), "s");
  out.layer("persist.snapshot_ms", median(snapshot), "ms");
  out.layer("persist.swap_ms", median(swap), "ms");
  out.layer("persist.compaction_s", median(total), "s");

  // ---- the load generator and the trace itself ----
  double late_p99 = 0.0;
  double latency_ms = 0.0;
  double attributed_ms = 0.0;
  for (const auto& [phase, result] : in.open_loop) {
    late_p99 = std::max(late_p99, quantile(result->late_ms, 0.99));
    for (double ms : result->latency_ms) {
      if (ms < OpenLoopResult::kMissedMs) {
        latency_ms += ms;
      }
    }
    attributed_ms += sum(program_span_ms(phase->spans, "queue-wait")) +
                     sum(program_span_ms(phase->spans, "delta-scan"));
    for (const auto& [trace, ms] : cell_cover_ms(phase->cells)) {
      attributed_ms += ms;
    }
  }
  out.layer("loadgen.late_ms.p99", late_p99, "ms");
  out.layer("trace.overhead_pct", in.overhead_pct, "%");
  out.layer("trace.unattributed_share",
            latency_ms > 0.0 ? 1.0 - attributed_ms / latency_ms : 0.0,
            "ratio");
}

}  // namespace perfbench
