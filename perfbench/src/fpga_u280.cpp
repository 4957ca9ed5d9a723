// fpga-u280: the paper's device.  fpga-sim (20-bit values, 32 cores)
// serves a Table III-shaped collection, each query simulated on one host
// thread, closed loop then two open-loop rates; the U280 hbmsim model
// turns the encoder's real per-core packet counts into modelled device
// time.  BS-CSR encoding, packet streaming and the timing model do all
// the work; the shard tier, the delta tier and persist do none.
#include "core/design.hpp"
#include "hbmsim/timing_model.hpp"
#include "index/backends.hpp"
#include "index/registry.hpp"
#include "layers.hpp"
#include "probes.hpp"
#include "serving.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kRows = 50'000;
constexpr int kTopK = 100;  // the paper's K
constexpr int kWorkers = 1;
/// Pool threads: each open-loop request runs on one thread, at most two
/// at once, so requests seldom queue behind each other at the fixed
/// rates.  The closed loop runs on the calling thread alone.
constexpr int kPoolWorkers = 2;
constexpr std::size_t kBatch = 8;
constexpr std::size_t kQueryPool = 64;
constexpr int kSetupBuilds = 25;
constexpr double kLowRate = 60.0;
constexpr double kHighRate = 120.0;
/// Lowest mean recall@K against exact-sort accepted as correct.
constexpr double kRecallFloor = 0.9;

}  // namespace

RunResult run_fpga_u280(const RunSettings& settings) {
  RunResult out;
  topk::util::shared_pool().ensure_workers(kPoolWorkers);
  const auto matrix = make_collection(kRows, derive_seed(settings.seed, 1));
  const auto queries =
      make_queries(kQueryPool, matrix->cols(), derive_seed(settings.seed, 2));
  topk::index::IndexOptions options;
  options.design = topk::core::DesignConfig::fixed(20, 32);

  auto [setup_s, device] = build_timed(kSetupBuilds, [&] {
    return std::static_pointer_cast<topk::index::FpgaSimIndex>(
        topk::index::make_index("fpga-sim", matrix, options));
  });
  LayerInputs layers;
  StaticPlan plan;
  plan.served = settings.trace
                    ? std::make_shared<CellProbe>(device, "fpga-sim", 0, 0.0)
                    : std::shared_ptr<const topk::index::SimilarityIndex>(device);
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

  // fpga-sim is approximate: scored by recall against exact-sort.
  topk::index::ExactSortIndex oracle(matrix);
  const auto truth = oracle.query_batch(queries, kTopK);
  std::vector<double> recalls;
  for (std::size_t i = 0; i < kQueryPool; ++i) {
    if (outcome.first[i]) {
      recalls.push_back(recall(*outcome.first[i], truth[i].entries));
    }
  }
  const double mean_recall = mean(recalls);
  if (mean_recall < kRecallFloor) {
    out.fail("recall@" + std::to_string(kTopK) + " " +
             std::to_string(mean_recall) + " is below the floor " +
             std::to_string(kRecallFloor));
  }

  // The U280 model over the encoder's real packet counts: simulated
  // time, calibrated to the paper's anchors, not validated on hardware.
  const auto model = topk::hbmsim::estimate_query_time(device->accelerator(),
                                                       matrix->nnz());

  out.add("query_qps", outcome.closed.qps(), "1/s");
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", rss, "MB");
  out.add("index_bytes_per_nnz",
          static_cast<double>(device->describe().memory_bytes) /
              static_cast<double>(matrix->nnz()),
          "B/nnz");
  out.add("recall_at_k", mean_recall, "ratio");
  out.note("modelled_qps", 1.0 / model.seconds, "1/s");
  out.note("rows", matrix->rows(), "count");
  out.note("cols", matrix->cols(), "count");
  out.note("nnz", static_cast<double>(matrix->nnz()), "count");
  out.note("cores", options.design.cores, "count");
  out.note("value_bits", options.design.value_bits, "count");
  out.note("top_k", kTopK, "count");
  out.note("query_workers", kWorkers, "count");
  out.note("batch", kBatch, "count");
  out.note("rate.low", kLowRate, "1/s");
  out.note("rate.high", kHighRate, "1/s");
  out.note("closed_loop_queries", static_cast<double>(outcome.closed.queries),
           "count");

  if (settings.trace) {
    DeviceModel device_model;
    device_model.modelled_seconds = model.seconds;
    device_model.nnz_per_second = model.nnz_per_second;
    device_model.source_nnz = matrix->nnz();
    device_model.packet_capacity = device->accelerator().layout().capacity;
    layers.device = device_model;
    outcome.fill(layers);
    report_layers(layers, out);
  }
  return out;
}

}  // namespace perfbench
