#include "sparse/generator.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

std::shared_ptr<const topk::sparse::Csr> make_collection(std::uint32_t rows,
                                                         std::uint64_t seed) {
  topk::sparse::GeneratorConfig config;
  config.rows = rows;
  config.cols = 1024;
  config.mean_nnz_per_row = 20.0;
  config.distribution = topk::sparse::RowDistribution::kGamma;
  config.seed = seed;
  return std::make_shared<const topk::sparse::Csr>(
      topk::sparse::generate_matrix(config));
}

std::vector<std::vector<float>> make_queries(std::size_t count,
                                             std::uint32_t cols,
                                             std::uint64_t seed) {
  topk::util::Xoshiro256 rng(seed);
  std::vector<std::vector<float>> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back(topk::sparse::generate_dense_vector(cols, rng));
  }
  return queries;
}

}  // namespace perfbench
