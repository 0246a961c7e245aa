// ML training/prediction throughput benchmark (PERF gate companion to
// bench_perf_pipeline).
//
// The paper's §V result — retrain-daily beats train-once by a wide margin
// on multi-year data — makes classifier *training* a recurring hot path,
// not a one-off setup cost.  This bench pins it on seeded synthetic blob
// data (class centers + Gaussian noise, half the columns quantized so the
// split search sees tied feature values like the real fraction features):
//
//   * cart_fit_rows_per_s     single CART fit, all features per node
//   * rf_fit_rows_per_s       Random Forest fit (bootstraps + presort reuse)
//   * rf_predict_rows_per_s   batched forest prediction
//   * svm_fit_rows_per_s      one-vs-one RBF SVM fit (SMO)
//   * svm_predict_rows_per_s  batched SVM prediction
//   * crossval_reps_per_s     repeated-split RF cross-validation (the
//                             §IV-C protocol, via the index-span fast path)
//
// Modes (same contract as bench_perf_pipeline):
//   bench_ml --json BENCH_ml.json      write machine-readable results
//   bench_ml --check BENCH_ml.json     fail (exit 1) on a >10% throughput
//                                      regression vs the committed numbers
//   bench_ml --baseline OLD.json       with --json: record the old numbers
//                                      and the measured speedup per axis
//   bench_ml --smoke                   tiny run (ctest labels perf/ml-perf)
//
// Times are best-of --repeat (default 3) so scheduler noise shrinks the
// committed baseline instead of inflating it.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "common.hpp"
#include "gate.hpp"
#include "ml/crossval.hpp"
#include "ml/forest.hpp"
#include "ml/svm.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace dnsbs::bench {
namespace {

/// Seeded blob dataset: `classes` random centers in [0,1]^features, rows
/// drawn center + N(0, spread).  Even-indexed columns are quantized to a
/// 1/64 grid so the split search and kernel evaluate tied values, like the
/// keyword-fraction features do.
ml::Dataset blobs(std::size_t rows, std::size_t features, std::size_t classes,
                  double spread, std::uint64_t seed) {
  std::vector<std::string> feature_names, class_names;
  for (std::size_t f = 0; f < features; ++f) feature_names.push_back("f" + std::to_string(f));
  for (std::size_t k = 0; k < classes; ++k) class_names.push_back("c" + std::to_string(k));
  ml::Dataset d(std::move(feature_names), std::move(class_names));

  util::Rng rng(seed);
  std::vector<double> centers(classes * features);
  for (double& c : centers) c = rng.uniform();
  std::vector<double> row(features);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t k = i % classes;
    for (std::size_t f = 0; f < features; ++f) {
      double v = centers[k * features + f] + rng.normal(0.0, spread);
      if ((f & 1) == 0) v = std::round(v * 64.0) / 64.0;
      row[f] = v;
    }
    d.add(row, k);
  }
  return d;
}

struct Results {
  std::size_t rf_rows = 0;
  std::size_t svm_rows = 0;
  double cart_fit_rows_per_s = 0;
  double rf_fit_rows_per_s = 0;
  double rf_predict_rows_per_s = 0;
  double svm_fit_rows_per_s = 0;
  double svm_predict_rows_per_s = 0;
  double crossval_reps_per_s = 0;
};

int run(int argc, char** argv) {
  const bool smoke = arg_flag(argc, argv, "--smoke");
  const double scale = arg_scale(argc, argv, smoke ? 0.1 : 1.0);
  const std::uint64_t seed = arg_seed(argc, argv, 13);
  const int repeat =
      smoke ? 1 : std::max(1, std::atoi(arg_str(argc, argv, "--repeat", "3").c_str()));
  const std::size_t threads = static_cast<std::size_t>(
      std::atoi(arg_str(argc, argv, "--threads", "1").c_str()));
  const std::string json_path = arg_str(argc, argv, "--json", "");
  const std::string check_path = arg_str(argc, argv, "--check", "");
  const std::string baseline_path = arg_str(argc, argv, "--baseline", "");
  util::set_thread_count(threads);

  print_header("ml", "§IV-C classifier training throughput (retrain-often hot path)",
               util::format("scale=%.3f seed=%llu threads=%zu repeat=%d", scale,
                            static_cast<unsigned long long>(seed), threads, repeat));

  // Tree-learner workload: wide enough that the per-node split search
  // dominates; SVM workload smaller (SMO is quadratic in rows).
  const std::size_t rf_rows = std::max<std::size_t>(60, static_cast<std::size_t>(2400 * scale));
  const std::size_t svm_rows = std::max<std::size_t>(40, static_cast<std::size_t>(600 * scale));
  const ml::Dataset tree_data = blobs(rf_rows, 24, 6, 0.16, seed);
  const ml::Dataset svm_data = blobs(svm_rows, 16, 4, 0.22, seed + 1);

  Results res;
  res.rf_rows = tree_data.size();
  res.svm_rows = svm_data.size();

  // --- CART: one deep tree, all features per node -----------------------
  ml::CartConfig cart_cfg;
  cart_cfg.seed = seed;
  res.cart_fit_rows_per_s = best_of(repeat, tree_data.size(), [&] {
    ml::CartTree tree(cart_cfg);
    tree.fit(tree_data);
    if (tree.node_count() < 8) std::abort();  // degenerate fit = broken bench
  });

  // --- Random Forest fit + batched predict ------------------------------
  ml::ForestConfig rf_cfg;
  rf_cfg.n_trees = smoke ? 10 : 60;
  rf_cfg.seed = seed;
  res.rf_fit_rows_per_s = best_of(repeat, tree_data.size(), [&] {
    ml::RandomForest rf(rf_cfg);
    rf.fit(tree_data);
    if (rf.tree_count() != rf_cfg.n_trees) std::abort();
  });
  ml::RandomForest rf(rf_cfg);
  rf.fit(tree_data);
  res.rf_predict_rows_per_s = best_of(repeat, tree_data.size(), [&] {
    if (rf.predict_all(tree_data).size() != tree_data.size()) std::abort();
  });

  // --- SVM fit + batched predict ----------------------------------------
  ml::SvmConfig svm_cfg;
  svm_cfg.seed = seed;
  res.svm_fit_rows_per_s = best_of(repeat, svm_data.size(), [&] {
    ml::KernelSvm svm(svm_cfg);
    svm.fit(svm_data);
    if (svm.support_vector_count() == 0) std::abort();
  });
  ml::KernelSvm svm(svm_cfg);
  svm.fit(svm_data);
  res.svm_predict_rows_per_s = best_of(repeat, svm_data.size(), [&] {
    if (svm.predict_all(svm_data).size() != svm_data.size()) std::abort();
  });

  // --- cross-validation: the paper's repeated-split protocol ------------
  ml::CrossValConfig cv;
  cv.repetitions = smoke ? 2 : 8;
  cv.seed = seed;
  res.crossval_reps_per_s = best_of(repeat, cv.repetitions, [&] {
    const ml::MetricSummary s = ml::cross_validate(
        tree_data,
        [&](std::uint64_t model_seed) -> std::unique_ptr<ml::Classifier> {
          ml::ForestConfig fc;
          fc.n_trees = smoke ? 10 : 40;
          fc.seed = model_seed;
          return std::make_unique<ml::RandomForest>(fc);
        },
        cv);
    if (s.mean.accuracy <= 0.5) std::abort();  // blobs are easy; <=50% = broken
  });

  std::printf("tree dataset       %zu rows x %zu features, %zu classes\n", tree_data.size(),
              tree_data.feature_count(), tree_data.class_count());
  std::printf("svm dataset        %zu rows x %zu features, %zu classes\n", svm_data.size(),
              svm_data.feature_count(), svm_data.class_count());
  std::printf("cart fit           %.0f rows/s\n", res.cart_fit_rows_per_s);
  std::printf("rf fit             %.0f rows/s (%zu trees)\n", res.rf_fit_rows_per_s,
              rf_cfg.n_trees);
  std::printf("rf predict_all     %.0f rows/s\n", res.rf_predict_rows_per_s);
  std::printf("svm fit            %.0f rows/s\n", res.svm_fit_rows_per_s);
  std::printf("svm predict_all    %.0f rows/s\n", res.svm_predict_rows_per_s);
  std::printf("crossval           %.2f reps/s (%zu reps)\n", res.crossval_reps_per_s,
              cv.repetitions);

  const Axis axes[] = {
      {"cart_fit_rows_per_s", res.cart_fit_rows_per_s},
      {"rf_fit_rows_per_s", res.rf_fit_rows_per_s},
      {"rf_predict_rows_per_s", res.rf_predict_rows_per_s},
      {"svm_fit_rows_per_s", res.svm_fit_rows_per_s},
      {"svm_predict_rows_per_s", res.svm_predict_rows_per_s},
      {"crossval_reps_per_s", res.crossval_reps_per_s},
  };

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"bench\": \"ml\",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"rf_rows\": " << res.rf_rows << ",\n"
       << "  \"svm_rows\": " << res.svm_rows << ",\n"
       << "  \"cart_fit_rows_per_s\": " << res.cart_fit_rows_per_s << ",\n"
       << "  \"rf_fit_rows_per_s\": " << res.rf_fit_rows_per_s << ",\n"
       << "  \"rf_predict_rows_per_s\": " << res.rf_predict_rows_per_s << ",\n"
       << "  \"svm_fit_rows_per_s\": " << res.svm_fit_rows_per_s << ",\n"
       << "  \"svm_predict_rows_per_s\": " << res.svm_predict_rows_per_s << ",\n"
       << "  \"crossval_reps_per_s\": " << res.crossval_reps_per_s << ",\n"
       // Registry snapshot: the committed baseline doubles as the fixture
       // proving the dnsbs.ml.* counters move (fits, trees, kernel cache).
       << "  \"metrics\": " << util::metrics_snapshot().to_json();
    if (!baseline_path.empty()) append_baseline(os, baseline_path, axes);
    os << "\n}\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!check_path.empty()) return check_axes(check_path, axes);
  return 0;
}

}  // namespace
}  // namespace dnsbs::bench

int main(int argc, char** argv) { return dnsbs::bench::run(argc, argv); }
