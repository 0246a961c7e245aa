// Extension features: QNAME minimization and verified label growing.
#include <gtest/gtest.h>

#include "core/sensor.hpp"
#include "labeling/curator.hpp"
#include "labeling/strategies.hpp"
#include "sim/scenario.hpp"

namespace dnsbs {
namespace {

TEST(QnameMin, ZeroFractionChangesNothing) {
  sim::ScenarioConfig a = sim::jp_ditl_config(311, 0.04);
  a.duration = util::SimTime::hours(4);
  a.resolver.qname_min_fraction = 0.0;
  sim::Scenario scenario(std::move(a));
  scenario.run();
  EXPECT_GT(scenario.authority(0).records().size(), 100u);
}

TEST(QnameMin, FullDeploymentBlindsUpperAuthorities) {
  sim::ScenarioConfig cfg = sim::jp_ditl_config(311, 0.04);
  cfg.duration = util::SimTime::hours(4);
  cfg.resolver.qname_min_fraction = 1.0;
  sim::Scenario scenario(std::move(cfg));
  scenario.run();
  // National and roots see nothing attributable...
  EXPECT_EQ(scenario.authority(0).records().size(), 0u);
  EXPECT_EQ(scenario.authority(1).records().size(), 0u);
  EXPECT_EQ(scenario.authority(2).records().size(), 0u);
  // ...even though the resolution traffic still happened.
  EXPECT_GT(scenario.engine().stats().national_queries, 0u);
}

TEST(QnameMin, PartialDeploymentAttenuatesMonotonically) {
  const auto records_at = [](double fraction) {
    sim::ScenarioConfig cfg = sim::jp_ditl_config(313, 0.04);
    cfg.duration = util::SimTime::hours(4);
    cfg.resolver.qname_min_fraction = fraction;
    sim::Scenario scenario(std::move(cfg));
    scenario.run();
    return scenario.authority(0).records().size();
  };
  const auto none = records_at(0.0);
  const auto half = records_at(0.5);
  const auto full = records_at(1.0);
  EXPECT_GT(none, half);
  EXPECT_GT(half, full);
  EXPECT_EQ(full, 0u);
  // Half deployment should be in the rough vicinity of half the signal.
  EXPECT_GT(half, none / 4);
  EXPECT_LT(half, none * 3 / 4);
}

TEST(QnameMin, FinalAuthorityKeepsFullSignal) {
  // A final authority (controlled-experiment style) still sees minimized
  // resolvers: the last query in the chain carries the full QNAME.
  sim::AddressPlanConfig plan_cfg;
  plan_cfg.total_slash8 = 40;
  plan_cfg.sites = 600;
  const auto plan = sim::AddressPlan::generate(plan_cfg, 5);
  const sim::NamingModel naming(plan, {}, 5);
  const sim::QuerierPopulation qpop(naming, {}, 5);

  sim::ResolverSimConfig resolver;
  resolver.qname_min_fraction = 1.0;
  sim::TrafficEngine engine(plan, naming, qpop, resolver, 5);

  util::Rng rng(6);
  const net::IPv4Addr scanner = plan.random_host(rng, sim::SiteType::kHosting);
  sim::Authority final_auth(sim::AuthorityConfig{
      .name = "final",
      .level = sim::AuthorityLevel::kFinal,
      .country = std::nullopt,
      .zone = net::Prefix(scanner, 24),
  });
  engine.add_authority(&final_auth);

  sim::OriginatorSpec spec;
  spec.address = scanner;
  spec.cls = core::AppClass::kScan;
  spec.kind = sim::TrafficKind::kScanProbe;
  spec.strategy = sim::TargetStrategy::kRandomAddress;
  spec.touches_per_hour = 3000;
  const std::vector<sim::OriginatorSpec> population = {spec};
  engine.run(population, util::SimTime::seconds(0), util::SimTime::hours(2));
  EXPECT_GT(final_auth.records().size(), 10u);
}

TEST(VerifiedGrowth, KeepsLabelErrorBelowPlainGrowth) {
  sim::ScenarioConfig cfg = sim::b_multi_year_config(317, 8, 0.07);
  sim::Scenario scenario(std::move(cfg));
  labeling::Darknet darknet(labeling::default_darknet_prefixes());
  scenario.engine().set_traffic_observer(&darknet);

  core::SensorConfig sensor_cfg;
  sensor_cfg.min_queriers = 10;
  std::vector<labeling::WindowObservation> windows;
  for (int w = 0; w < 8; ++w) {
    scenario.run_window(util::SimTime::weeks(w), util::SimTime::weeks(w + 1));
    core::Sensor sensor(sensor_cfg, scenario.plan().as_db(), scenario.plan().geo_db(),
                        scenario.naming());
    sensor.ingest_all(scenario.authority(0).records());
    scenario.authority(0).clear_records();
    labeling::WindowObservation obs;
    obs.features = sensor.extract_features();
    windows.push_back(std::move(obs));
  }

  util::Rng rng(9);
  const auto blacklist = labeling::BlacklistSet::build(scenario.population(), {}, rng);
  labeling::CuratorConfig cc;
  cc.max_per_class = 40;
  labeling::Curator curator(scenario, blacklist, darknet, cc, 10);
  const auto labels = curator.curate(windows[1].features);
  ASSERT_GT(labels.size(), 30u);

  const auto& truth = scenario.truth();
  const auto plain = labeling::evaluate_auto_grow(windows, 1, labels, {}, &truth);
  const auto verified = labeling::evaluate_auto_grow_verified(
      windows, 1, labels, blacklist, darknet, {}, &truth);

  double plain_err = 0, verified_err = 0;
  std::size_t n = 0;
  for (std::size_t w = 3; w < windows.size(); ++w) {
    plain_err += plain[w].label_error;
    verified_err += verified[w].label_error;
    ++n;
  }
  ASSERT_GT(n, 0u);
  EXPECT_LT(verified_err / n, plain_err / n + 1e-9);
}

}  // namespace
}  // namespace dnsbs
