#include "serving.hpp"

#include <string>

namespace perfbench {

void StaticOutcome::fill(LayerInputs& layers) const {
  layers.phases = {closed_trace, low_trace, high_trace};
  layers.open_loop = {{&low_trace, &low}, {&high_trace, &high}};
  layers.overhead_pct = overhead_pct;
}

StaticOutcome serve_static(const StaticPlan& plan,
                           const std::vector<std::vector<float>>& queries,
                           const RunSettings& settings, RunResult& out) {
  StaticOutcome outcome;
  outcome.first.resize(queries.size());
  const auto check = [&](std::size_t i, const topk::index::QueryResult& r) {
    auto& slot = outcome.first[i % queries.size()];
    if (!slot) {
      slot = r.entries;
    } else if (slot != r.entries) {
      ++outcome.unstable;
    }
  };

  std::vector<std::vector<std::vector<float>>> batches;
  for (std::size_t b = 0; b + plan.batch <= queries.size(); b += plan.batch) {
    batches.emplace_back(queries.begin() + static_cast<long>(b),
                         queries.begin() + static_cast<long>(b + plan.batch));
  }
  topk::serve::EngineConfig config;
  config.workers = plan.workers;
  config.max_pending = 256;
  {
    topk::serve::QueryEngine engine(plan.served, config);
    std::size_t cursor = 0;
    const auto step = [&]() -> std::size_t {
      const std::size_t b = cursor++ % batches.size();
      out.attempted += plan.batch;
      try {
        const auto results = engine.query_batch(batches[b], plan.top_k);
        for (std::size_t q = 0; q < plan.batch; ++q) {
          check(b * plan.batch + q, results[q]);
        }
      } catch (const std::exception& error) {
        out.failed += plan.batch;
        out.fail(std::string("query_batch threw: ") + error.what());
      }
      return plan.batch;
    };
    if (settings.trace) {
      outcome.overhead_pct = tracing_overhead_pct(step, 0.5, 3);
    }
    outcome.closed = run_closed_loop(settings.seconds * kClosedShare, step);
    if (settings.trace) {
      outcome.closed_trace = take_phase_trace();
    }
  }

  // Open loop: each request runs its scatter on one thread, so
  // concurrent requests never wait for a helper.
  config.workers = 1;
  const double seconds = settings.seconds * (1.0 - kClosedShare) / 2.0;
  for (int p = 0; p < 2; ++p) {
    topk::serve::QueryEngine engine(plan.served, config);
    OpenLoopResult& phase = p == 0 ? outcome.low : outcome.high;
    phase = run_open_loop(
        engine, queries,
        poisson_schedule(p == 0 ? plan.low_rate : plan.high_rate, seconds,
                         derive_seed(settings.seed, 100 + p)),
        plan.top_k, check);
    report_open_loop(phase, p == 0 ? "low" : "high", out);
    if (settings.trace) {
      (p == 0 ? outcome.low_trace : outcome.high_trace) = take_phase_trace();
    }
  }
  if (outcome.unstable != 0) {
    out.fail(std::to_string(outcome.unstable) +
             " results differ from an earlier result of the same query");
  }
  return outcome;
}

}  // namespace perfbench
