// scan-simd: the read-only scan.  One client drives fixed-size batches
// through QueryEngine::query_batch (closed loop), then single queries
// arrive at two fixed Poisson rates through QueryEngine::try_submit
// (open loop).  The simd kernel and the shard scatter-gather do nearly
// all the work; the delta tier and persist do none.
#include "index/backends.hpp"
#include "layers.hpp"
#include "probes.hpp"
#include "serving.hpp"
#include "shard/sharded_index.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kRows = 1'000'000;
constexpr int kShards = 4;
constexpr int kTopK = 10;
constexpr int kWorkers = 2;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kQueryPool = 64;
constexpr int kSetupBuilds = 5;
constexpr double kLowRate = 50.0;
constexpr double kHighRate = 100.0;

}  // namespace

RunResult run_scan_simd(const RunSettings& settings) {
  RunResult out;
  // Async requests and query_batch both run on the shared pool; two
  // workers are the whole query budget.
  topk::util::shared_pool().ensure_workers(kWorkers);
  const auto matrix = make_collection(kRows, derive_seed(settings.seed, 1));
  const auto queries =
      make_queries(kQueryPool, matrix->cols(), derive_seed(settings.seed, 2));
  const std::string inner =
      settings.trace ? traced_cpu_simd_backend() : "cpu-simd";

  auto [setup_s, sharded] = build_timed(kSetupBuilds, [&] {
    return topk::shard::ShardedIndexBuilder()
        .matrix(matrix)
        .shards(kShards)
        .inner_backend(inner)
        .label("sharded-cpu-simd")
        .build();
  });
  LayerInputs layers;
  if (settings.trace) {
    layers.triad_bytes_per_second = stream_triad_bytes_per_second();
  }
  StaticPlan plan;
  plan.served = settings.trace
                    ? std::make_shared<QueryProbe>(sharded)
                    : std::shared_ptr<const topk::index::SimilarityIndex>(sharded);
  plan.top_k = kTopK;
  plan.workers = kWorkers;
  plan.batch = kBatch;
  plan.low_rate = kLowRate;
  plan.high_rate = kHighRate;
  StaticOutcome outcome;
  double rss = 0.0;
  {
    const RssSampler sampler;
    outcome = serve_static(plan, queries, settings, out);
    rss = sampler.peak_mb();
  }

  // Oracle: exact-sort over the same collection, bit-identical expected.
  topk::index::ExactSortIndex oracle(matrix);
  topk::index::QueryOptions oracle_options;
  oracle_options.threads = kWorkers;
  const auto truth = oracle.query_batch(queries, kTopK, oracle_options);
  std::vector<double> recalls;
  std::size_t differing = 0;
  for (std::size_t i = 0; i < kQueryPool; ++i) {
    if (outcome.first[i]) {
      recalls.push_back(recall(*outcome.first[i], truth[i].entries));
      differing += *outcome.first[i] == truth[i].entries ? 0 : 1;
    }
  }
  if (differing != 0) {
    out.fail(std::to_string(differing) +
             " queries differ from the exact-sort oracle");
  }

  out.add("query_qps", outcome.closed.qps(), "1/s");
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", rss, "MB");
  out.add("index_bytes_per_nnz",
          static_cast<double>(sharded->describe().memory_bytes) /
              static_cast<double>(matrix->nnz()),
          "B/nnz");
  out.add("recall_at_k", mean(recalls), "ratio");
  out.note("rows", matrix->rows(), "count");
  out.note("cols", matrix->cols(), "count");
  out.note("nnz", static_cast<double>(matrix->nnz()), "count");
  out.note("shards", kShards, "count");
  out.note("replicas", 1, "count");
  out.note("top_k", kTopK, "count");
  out.note("query_workers", kWorkers, "count");
  out.note("batch", kBatch, "count");
  out.note("rate.low", kLowRate, "1/s");
  out.note("rate.high", kHighRate, "1/s");
  out.note("closed_loop_queries", static_cast<double>(outcome.closed.queries),
           "count");

  if (settings.trace) {
    for (std::size_t s = 0; s < sharded->shard_count(); ++s) {
      for (const auto& replica : sharded->replica_stats(s)) {
        layers.replica_failures += replica.failures;
      }
    }
    outcome.fill(layers);
    report_layers(layers, out);
  }
  return out;
}

}  // namespace perfbench
