// Measurement plumbing shared by the workloads: clocks, quantiles,
// the metric/result record, the closed- and open-loop drivers, set-up
// timing and the host bandwidth ceiling.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "index/similarity_index.hpp"
#include "serve/query_engine.hpp"

namespace perfbench {

/// Seconds on the steady clock (the clock every interval here uses).
[[nodiscard]] double now_seconds();

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// One named figure with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (measured with tracing on in a traced run,
  /// where they are reported for reference only).
  std::vector<Metric> metrics;
  /// Per-layer metrics; filled by traced runs only.
  std::vector<Metric> layers;
  /// Further figures printed in the report but not gated: workload
  /// sizes, generator lateness, modelled figures.
  std::vector<Metric> info;
  /// False when the measurement itself cannot be trusted (the load
  /// generator fell behind its schedule): such a run reports nothing.
  bool valid = true;
  /// Human-readable reasons the run is incorrect or invalid.
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  void invalid(std::string why) {
    valid = false;
    problems.push_back(std::move(why));
  }
};

/// Independent sub-seeds of the run seed, one per input stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Phase lengths of a run of `seconds`: the closed loop takes
/// kClosedShare of it and each open-loop rate half of the rest.
inline constexpr double kClosedShare = 0.2;

/// Command-line settings every workload receives.
struct RunSettings {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (compaction images).
  std::string work_dir;
};

/// Runs `build()` `builds` times and returns the median build time in
/// seconds with the last build.  The previous build is dropped outside
/// the timed interval.
template <typename Build>
[[nodiscard]] auto build_timed(int builds, Build&& build) {
  using Index = decltype(build());
  Index index{};
  std::vector<double> seconds;
  for (int b = 0; b < builds; ++b) {
    index = Index{};
    const double start = now_seconds();
    index = build();
    seconds.push_back(now_seconds() - start);
  }
  return std::pair{median(std::move(seconds)), std::move(index)};
}

/// A closed loop: `step()` runs one request and returns the queries it
/// completed; repeats until `seconds` have passed.
struct ClosedLoopResult {
  std::size_t queries = 0;
  double seconds = 0.0;
  /// Throughput of each whole kWindowSeconds window.
  std::vector<double> window_qps;
  /// Median window throughput: a burst of load from outside the
  /// benchmark moves one window, not the figure.
  [[nodiscard]] double qps() const { return median(window_qps); }
  static constexpr double kWindowSeconds = 1.0;
};
[[nodiscard]] ClosedLoopResult run_closed_loop(
    double seconds, const std::function<std::size_t()>& step);

/// Samples this process's resident set size every kPeriodMs while
/// alive and keeps the largest value: the peak over the measured phases,
/// which the set-up builds before it cannot inflate.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  [[nodiscard]] double peak_mb() const;

  static constexpr int kPeriodMs = 2;

 private:
  void sample();

  std::atomic<bool> stop_{false};
  std::atomic<long> peak_pages_{0};
  std::thread thread_;
};

/// Single-thread STREAM-triad bandwidth (a[i] = b[i] + s * c[i], 24
/// bytes per element) in bytes per second: the best of several passes
/// over arrays far larger than the last-level cache.
[[nodiscard]] double stream_triad_bytes_per_second();

/// Share of `truth`'s row ids that `got` also returns.
[[nodiscard]] double recall(const std::vector<topk::core::TopKEntry>& got,
                            const std::vector<topk::core::TopKEntry>& truth);

/// A fixed-rate open-loop schedule: query i is due at `due[i]` seconds
/// after the phase starts.  Gaps are exponential (Poisson arrivals)
/// drawn from the seed, so the same seed gives the same schedule.
struct Schedule {
  double rate = 0.0;  ///< offered queries per second
  std::vector<double> due;
};
[[nodiscard]] Schedule poisson_schedule(double rate, double seconds,
                                        std::uint64_t seed);

/// Outcome of one open-loop phase.
struct OpenLoopResult {
  /// Latency of every scheduled query from its due time, in ms; a
  /// failed or rejected query reads as kMissedMs.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  ///< how late each send was, in due order
  double mean_gap_ms = 0.0;
  std::size_t peak_pending = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  static constexpr double kMissedMs = 1e9;
};

/// Threads that wait on in-flight open-loop requests (see run_open_loop).
inline constexpr std::size_t kWaiters = 8;

/// Sends `queries[i % queries.size()]` at schedule.due[i] through
/// QueryEngine::try_submit (a rejection is a failure, never a stall),
/// timing each from its due time.  Arrivals are paced by deadline
/// sleeps on the steady clock; kWaiters threads stamp completions.
/// `check(i, result)` sees every successful result after the phase.
[[nodiscard]] OpenLoopResult run_open_loop(
    topk::serve::QueryEngine& engine,
    const std::vector<std::vector<float>>& queries, const Schedule& schedule,
    int top_k,
    const std::function<void(std::size_t, const topk::index::QueryResult&)>&
        check);

/// Largest share of the mean inter-arrival gap the generator may fall
/// behind at its 90th percentile before the phase is invalid: a rare
/// late wake-up is charged to the queries it delays (latency counts
/// from the due time), a generator that cannot keep its schedule is
/// not offering the stated rate.
inline constexpr double kMaxLateShareOfGap = 0.25;

/// Queries per slice of an open-loop phase.  A phase's latency
/// percentile is the median of the percentile over consecutive slices of
/// this many queries (in due order), so a burst of load from outside the
/// benchmark moves one slice, not the figure; a phase shorter than two
/// slices is one slice.
inline constexpr std::size_t kSliceQueries = 250;

/// Sliced percentile of `latency_ms` (in due order), as above.
[[nodiscard]] double sliced_quantile(const std::vector<double>& latency_ms,
                                     double q);

/// Records an open-loop phase's latency percentiles and validity under
/// `suffix` ("low" / "high") into `out`.
void report_open_loop(const OpenLoopResult& phase, const std::string& suffix,
                      RunResult& out);

}  // namespace perfbench
