// Ground truth, blacklists, darknets, and curation.
#include <gtest/gtest.h>

#include "labeling/blacklist.hpp"
#include "labeling/curator.hpp"
#include "labeling/darknet.hpp"
#include "labeling/ground_truth.hpp"

namespace dnsbs::labeling {
namespace {

using net::IPv4Addr;

TEST(GroundTruth, AddRemoveLookup) {
  GroundTruth gt;
  const IPv4Addr a = *IPv4Addr::parse("1.2.3.4");
  EXPECT_FALSE(gt.label_of(a));
  gt.add(a, core::AppClass::kSpam);
  ASSERT_TRUE(gt.label_of(a));
  EXPECT_EQ(*gt.label_of(a), core::AppClass::kSpam);
  gt.add(a, core::AppClass::kScan);  // relabel
  EXPECT_EQ(*gt.label_of(a), core::AppClass::kScan);
  gt.remove(a);
  EXPECT_FALSE(gt.label_of(a));
  EXPECT_TRUE(gt.empty());
}

TEST(GroundTruth, ClassCounts) {
  GroundTruth gt;
  gt.add(*IPv4Addr::parse("1.0.0.1"), core::AppClass::kSpam);
  gt.add(*IPv4Addr::parse("1.0.0.2"), core::AppClass::kSpam);
  gt.add(*IPv4Addr::parse("1.0.0.3"), core::AppClass::kMail);
  const auto counts = gt.class_counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(core::AppClass::kSpam)], 2u);
  EXPECT_EQ(counts[static_cast<std::size_t>(core::AppClass::kMail)], 1u);
}

TEST(GroundTruth, JoinFiltersUnlabeled) {
  GroundTruth gt;
  gt.add(*IPv4Addr::parse("1.0.0.1"), core::AppClass::kMail);
  std::vector<core::FeatureVector> features(2);
  features[0].originator = *IPv4Addr::parse("1.0.0.1");
  features[1].originator = *IPv4Addr::parse("9.9.9.9");  // unlabeled
  const auto [data, used] = gt.join(features);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data.label(0), static_cast<std::size_t>(core::AppClass::kMail));
  ASSERT_EQ(used.size(), 1u);
  EXPECT_EQ(used[0], *IPv4Addr::parse("1.0.0.1"));
}

std::vector<sim::OriginatorSpec> fake_population() {
  std::vector<sim::OriginatorSpec> population;
  for (int i = 0; i < 300; ++i) {
    sim::OriginatorSpec spec;
    spec.address = IPv4Addr(0x0a000000u + static_cast<std::uint32_t>(i));
    spec.cls = i < 100   ? core::AppClass::kSpam
               : i < 200 ? core::AppClass::kScan
                         : core::AppClass::kMail;
    population.push_back(spec);
  }
  return population;
}

TEST(Blacklist, SpammersListedBenignMostlyNot) {
  util::Rng rng(1);
  const auto population = fake_population();
  const BlacklistSet bl = BlacklistSet::build(population, {}, rng);

  std::size_t spam_listed = 0, mail_listed = 0;
  std::uint64_t spam_listings = 0;
  for (const auto& spec : population) {
    if (spec.cls == core::AppClass::kSpam) {
      spam_listed += bl.listed(spec.address);
      spam_listings += bl.spam_listings(spec.address);
    }
    if (spec.cls == core::AppClass::kMail) mail_listed += bl.listed(spec.address);
  }
  EXPECT_GT(spam_listed, 90u);   // nearly every active spammer is on some list
  EXPECT_LT(mail_listed, 15u);   // benign false listings are rare
  // Average listings per spammer well above zero but below operator count.
  EXPECT_GT(spam_listings, 300u);
  EXPECT_LT(spam_listings, 100u * 9u);
}

TEST(Blacklist, ScannersShowUpInOtherSections) {
  util::Rng rng(2);
  const auto population = fake_population();
  const BlacklistSet bl = BlacklistSet::build(population, {}, rng);
  std::uint64_t scan_other = 0, scan_spam = 0;
  for (const auto& spec : population) {
    if (spec.cls == core::AppClass::kScan) {
      scan_other += bl.other_listings(spec.address);
      scan_spam += bl.spam_listings(spec.address);
    }
  }
  EXPECT_GT(scan_other, 100u);
  EXPECT_EQ(scan_spam, 0u);
}

TEST(Blacklist, UnknownAddressUnlisted) {
  util::Rng rng(3);
  const BlacklistSet bl = BlacklistSet::build({}, {}, rng);
  EXPECT_FALSE(bl.listed(*IPv4Addr::parse("8.8.8.8")));
  EXPECT_EQ(bl.spam_listings(*IPv4Addr::parse("8.8.8.8")), 0u);
}

TEST(Darknet, CountsDistinctAddressesPerSource) {
  Darknet darknet({*net::Prefix::parse("127.0.0.0/10")});
  sim::OriginatorSpec scanner;
  scanner.address = *IPv4Addr::parse("10.0.0.1");
  // 5 hits on 3 distinct darknet addresses + 2 misses outside.
  darknet.on_touch(util::SimTime::seconds(0), scanner, *IPv4Addr::parse("127.0.0.1"));
  darknet.on_touch(util::SimTime::seconds(1), scanner, *IPv4Addr::parse("127.0.0.2"));
  darknet.on_touch(util::SimTime::seconds(2), scanner, *IPv4Addr::parse("127.0.0.2"));
  darknet.on_touch(util::SimTime::seconds(3), scanner, *IPv4Addr::parse("127.1.0.9"));
  darknet.on_touch(util::SimTime::seconds(4), scanner, *IPv4Addr::parse("10.0.0.9"));
  darknet.on_touch(util::SimTime::seconds(5), scanner, *IPv4Addr::parse("128.0.0.1"));
  EXPECT_EQ(darknet.addresses_hit_by(scanner.address), 3u);
  EXPECT_EQ(darknet.packets(), 4u);
  EXPECT_EQ(darknet.sources().size(), 1u);
  EXPECT_FALSE(darknet.confirms_scanner(scanner.address, 16));
  EXPECT_TRUE(darknet.confirms_scanner(scanner.address, 2));
}

TEST(Darknet, DefaultPrefixesAreReservedSpace) {
  for (const auto& prefix : default_darknet_prefixes()) {
    EXPECT_EQ(prefix.address().octet(0), 127);
  }
}

TEST(Curator, LabelsDetectedOriginatorsWithCaps) {
  sim::ScenarioConfig cfg = sim::jp_ditl_config(91, 0.05);
  sim::Scenario scenario(std::move(cfg));
  util::Rng rng(4);
  const BlacklistSet bl = BlacklistSet::build(scenario.population(), {}, rng);
  Darknet darknet(default_darknet_prefixes());

  // Detected features: fabricate one per population member so curation
  // has everything on the table.
  std::vector<core::FeatureVector> detected;
  for (const auto& spec : scenario.population()) {
    core::FeatureVector fv;
    fv.originator = spec.address;
    fv.footprint = 50;
    detected.push_back(fv);
  }

  CuratorConfig cc;
  cc.max_per_class = 10;
  cc.label_accuracy = 1.0;
  cc.require_evidence_for_malicious = true;
  Curator curator(scenario, bl, darknet, cc, 5);
  const GroundTruth gt = curator.curate(detected);

  EXPECT_GT(gt.size(), 0u);
  const auto counts = gt.class_counts();
  for (const auto count : counts) EXPECT_LE(count, 10u);
  // With a perfect expert, labels match scenario truth.
  for (const auto& [addr, cls] : gt.labels()) {
    EXPECT_EQ(scenario.truth().at(addr), cls);
  }
  // Malicious labels need evidence: an empty darknet means scan examples
  // require blacklist listings.
  for (const auto& [addr, cls] : gt.labels()) {
    if (core::is_malicious(cls)) {
      EXPECT_TRUE(bl.listed(addr));
    }
  }
}

TEST(Curator, ImperfectExpertMislabelsSome) {
  sim::ScenarioConfig cfg = sim::jp_ditl_config(92, 0.05);
  sim::Scenario scenario(std::move(cfg));
  util::Rng rng(6);
  const BlacklistSet bl = BlacklistSet::build(scenario.population(), {}, rng);
  Darknet darknet(default_darknet_prefixes());

  std::vector<core::FeatureVector> detected;
  for (const auto& spec : scenario.population()) {
    core::FeatureVector fv;
    fv.originator = spec.address;
    detected.push_back(fv);
  }
  CuratorConfig cc;
  cc.max_per_class = 1000;
  cc.label_accuracy = 0.5;  // exaggerated error for the test
  Curator curator(scenario, bl, darknet, cc, 7);
  const GroundTruth gt = curator.curate(detected);
  std::size_t wrong = 0;
  for (const auto& [addr, cls] : gt.labels()) {
    if (scenario.truth().at(addr) != cls) ++wrong;
  }
  EXPECT_GT(wrong, gt.size() / 5);
}

}  // namespace
}  // namespace dnsbs::labeling
