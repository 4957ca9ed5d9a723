// The measured phases of a workload over a static (read-only) index:
// a closed loop of fixed-size batches, then two open-loop rates.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"

namespace perfbench {

struct StaticPlan {
  std::shared_ptr<const topk::index::SimilarityIndex> served;
  int top_k = 10;
  /// Closed-loop fan-out of QueryEngine::query_batch; open-loop
  /// requests each run on one thread.
  int workers = 1;
  std::size_t batch = 8;
  double low_rate = 0.0;
  double high_rate = 0.0;
};

struct StaticOutcome {
  ClosedLoopResult closed;
  OpenLoopResult low;
  OpenLoopResult high;
  /// Closed, low and high phase traces (traced runs only).
  PhaseTrace closed_trace;
  PhaseTrace low_trace;
  PhaseTrace high_trace;
  double overhead_pct = 0.0;
  /// First result seen for each query of the pool; every later result
  /// of the same query must equal it.
  std::vector<std::optional<std::vector<topk::core::TopKEntry>>> first;
  std::uint64_t unstable = 0;

  /// Copies the phase traces and overhead into `layers`.
  void fill(LayerInputs& layers) const;
};

/// Runs the phases over `queries` (a pool whose size is a multiple of
/// plan.batch), adding the open-loop metrics, attempted and failed
/// counts to `out`.
[[nodiscard]] StaticOutcome serve_static(
    const StaticPlan& plan, const std::vector<std::vector<float>>& queries,
    const RunSettings& settings, RunResult& out);

}  // namespace perfbench
