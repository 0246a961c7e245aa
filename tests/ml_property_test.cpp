// Parameterized/property tests for the ML substrate: training-set-size
// sweeps, config sweeps, and invariants that must hold for any data.
#include <gtest/gtest.h>

#include "ml/cart.hpp"
#include "ml/crossval.hpp"
#include "ml/forest.hpp"
#include "ml/metrics.hpp"
#include "ml/svm.hpp"
#include "util/rng.hpp"

namespace dnsbs::ml {
namespace {

Dataset random_separable(std::size_t per_class, std::size_t classes,
                         std::size_t features, std::uint64_t seed) {
  std::vector<std::string> fnames, cnames;
  for (std::size_t f = 0; f < features; ++f) fnames.push_back("f" + std::to_string(f));
  for (std::size_t c = 0; c < classes; ++c) cnames.push_back("c" + std::to_string(c));
  Dataset d(std::move(fnames), std::move(cnames));
  util::Rng rng(seed);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      std::vector<double> row(features);
      // Class centre on feature 0, noise elsewhere.
      row[0] = static_cast<double>(c) + rng.normal(0.0, 0.12);
      for (std::size_t f = 1; f < features; ++f) row[f] = rng.uniform();
      d.add(std::move(row), c);
    }
  }
  return d;
}

// Predictions are always valid class indices, whatever the model.
class PredictionRange : public ::testing::TestWithParam<int> {};

TEST_P(PredictionRange, AlwaysWithinClassCount) {
  const Dataset d = random_separable(15, 5, 4, 99);
  std::unique_ptr<Classifier> model;
  switch (GetParam()) {
    case 0: model = std::make_unique<CartTree>(); break;
    case 1: model = std::make_unique<RandomForest>(ForestConfig{.n_trees = 10}); break;
    default: model = std::make_unique<KernelSvm>(); break;
  }
  model->fit(d);
  util::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> probe(4);
    for (auto& v : probe) v = rng.uniform(-10.0, 10.0);
    EXPECT_LT(model->predict(probe), d.class_count());
  }
}

std::string model_name(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0: return "CART";
    case 1: return "RF";
    default: return "SVM";
  }
}

INSTANTIATE_TEST_SUITE_P(Models, PredictionRange, ::testing::Values(0, 1, 2),
                         model_name);

// Accuracy grows (weakly) with training data on a fixed noisy problem.
class LearningCurve : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LearningCurve, MoreDataNeverMuchWorse) {
  const Dataset test = random_separable(60, 3, 3, GetParam() ^ 0xaa);
  const auto accuracy_with = [&](std::size_t per_class) {
    const Dataset train = random_separable(per_class, 3, 3, GetParam());
    RandomForest rf(ForestConfig{.n_trees = 30, .seed = GetParam()});
    rf.fit(train);
    std::size_t ok = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      ok += rf.predict(test.row(i)) == test.label(i);
    }
    return static_cast<double>(ok) / static_cast<double>(test.size());
  };
  const double small = accuracy_with(4);
  const double big = accuracy_with(80);
  EXPECT_GE(big + 0.05, small);
  EXPECT_GT(big, 0.85);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearningCurve, ::testing::Values(7u, 8u, 9u));

// Metrics invariants over random confusion matrices.
class MetricsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricsProperty, AllMetricsInUnitIntervalAndF1BetweenPandR) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t classes = 2 + rng.below(10);
    ConfusionMatrix cm(classes);
    const std::size_t entries = 1 + rng.below(300);
    for (std::size_t e = 0; e < entries; ++e) {
      cm.add(rng.below(classes), rng.below(classes));
    }
    const Metrics m = compute_metrics(cm);
    for (const double v : {m.accuracy, m.precision, m.recall, m.f1}) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0 + 1e-12);
    }
    // Macro-F1 cannot exceed the max of macro precision and recall.
    EXPECT_LE(m.f1, std::max(m.precision, m.recall) + 1e-9);
  }
}

TEST_P(MetricsProperty, PerfectDiagonalScoresOne) {
  util::Rng rng(GetParam() ^ 0x5);
  const std::size_t classes = 2 + rng.below(8);
  ConfusionMatrix cm(classes);
  for (std::size_t c = 0; c < classes; ++c) cm.add(c, c);
  const Metrics m = compute_metrics(cm);
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsProperty, ::testing::Values(41u, 42u));

// Forest size sweep: prediction quality saturates, never collapses.
class ForestSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ForestSizeSweep, ReasonableAccuracyAtEverySize) {
  const Dataset d = random_separable(40, 3, 3, 1234);
  RandomForest rf(ForestConfig{.n_trees = GetParam(), .seed = 7});
  rf.fit(d);
  std::size_t ok = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    ok += rf.predict(d.row(i)) == d.label(i);
  }
  EXPECT_GT(static_cast<double>(ok) / static_cast<double>(d.size()), 0.9);
  EXPECT_EQ(rf.tree_count(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestSizeSweep,
                         ::testing::Values(1u, 3u, 10u, 50u, 150u));

// SVM C/gamma sweep: all configurations learn the easy problem.
struct SvmCase {
  double C;
  double gamma;
};
// Print the knobs, not the struct's raw bytes: gtest puts the printed
// parameter into the listed test name.
void PrintTo(const SvmCase& c, std::ostream* os) { *os << "C_" << c.C << "_gamma_" << c.gamma; }

class SvmConfigSweep : public ::testing::TestWithParam<SvmCase> {};

TEST_P(SvmConfigSweep, LearnsSeparableData) {
  const Dataset d = random_separable(30, 2, 2, 555);
  SvmConfig cfg;
  cfg.C = GetParam().C;
  cfg.gamma = GetParam().gamma;
  KernelSvm svm(cfg);
  svm.fit(d);
  std::size_t ok = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    ok += svm.predict(d.row(i)) == d.label(i);
  }
  EXPECT_GT(static_cast<double>(ok) / static_cast<double>(d.size()), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Configs, SvmConfigSweep,
                         ::testing::Values(SvmCase{0.5, 0.0}, SvmCase{1.0, 0.5},
                                           SvmCase{10.0, 1.0}, SvmCase{100.0, 0.1}));

// Cross-validation: metrics bounded, runs counted, stratification keeps
// every class present in training.
TEST(CrossValProperty, BoundsAndRunCounts) {
  const Dataset d = random_separable(25, 4, 3, 777);
  CrossValConfig cfg;
  cfg.repetitions = 12;
  const MetricSummary s = cross_validate(
      d,
      [](std::uint64_t seed) {
        return std::unique_ptr<Classifier>(
            std::make_unique<RandomForest>(ForestConfig{.n_trees = 15, .seed = seed}));
      },
      cfg);
  EXPECT_EQ(s.runs, 12u);
  EXPECT_GE(s.mean.accuracy, 0.0);
  EXPECT_LE(s.mean.accuracy, 1.0);
  EXPECT_GE(s.stddev.f1, 0.0);
}

}  // namespace
}  // namespace dnsbs::ml
