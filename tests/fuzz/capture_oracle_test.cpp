// Capture decode oracle: dns::record_from_packet (one allocation-free walk
// over the packet, reverse address read from label views) against the
// reference classifier in capture_reference.hpp (a full Message decode with
// its own name/rdata rules, then the DnsName reverse parse).  Every input
// must land in the same CaptureStats bucket with the same record, and
// decode() must build the same Message as the reference decoder.
//
//  * >= 100k seeded ByteMutator mutants of PTR queries (random letter
//    case), responses and forward queries with trailing RR sections;
//  * hand cases for what mutation rarely reaches: compressed QNAMEs,
//    upper-case IN-ADDR.ARPA, zero-padded and 4-digit octet labels,
//    QDCOUNT 0 and 2, opcodes other than QUERY, and trailing RR sections
//    with bad rdata lengths.
//
// The dnsbs.capture.* registry series must move by exactly the tallies
// the capture stats report, and the stats must stay a partition.
#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <string>
#include <string_view>

#include "capture_reference.hpp"
#include "dns/capture.hpp"
#include "dns/reverse.hpp"
#include "dns/wire.hpp"
#include "util/fuzz.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace dnsbs::dns {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr std::array<const char*, 7> kBuckets = {"packets",          "malformed",
                                                 "responses",        "rejected_query",
                                                 "non_ptr",          "non_reverse_name",
                                                 "accepted"};

std::array<std::uint64_t, 7> tallies(const CaptureStats& s) {
  return {s.packets, s.malformed, s.responses, s.rejected_query, s.non_ptr,
          s.non_reverse_name, s.accepted};
}

std::array<std::uint64_t, 7> registry_tallies() {
  std::array<std::uint64_t, 7> out{};
  for (std::size_t i = 0; i < kBuckets.size(); ++i) {
    out[i] = util::metrics_counter(std::string("dnsbs.capture.") + kBuckets[i]).value();
  }
  return out;
}

/// The one bucket a packet moved from `before` to `after` ("" if none).
std::string bucket_of(const CaptureStats& before, const CaptureStats& after) {
  const auto b = tallies(before);
  const auto a = tallies(after);
  for (std::size_t i = 1; i < kBuckets.size(); ++i) {
    if (a[i] != b[i]) return kBuckets[i];
  }
  return "";
}

struct Outcome {
  std::string bucket;  ///< the one bucket the packet moved ("" if none)
  std::optional<QueryRecord> record;
};

/// Runs both classifiers on one input and checks they agree.
Outcome check_agrees(const Bytes& wire, CaptureStats& stats, CaptureStats& ref_stats,
                     const std::string& where) {
  const auto time = util::SimTime::seconds(1234);
  const net::IPv4Addr source = net::IPv4Addr::from_octets(192, 0, 2, 53);
  const CaptureStats before = stats;
  auto got = record_from_packet(wire, time, source, stats);
  const auto want = reference_record_from_packet(wire, time, source, ref_stats);
  EXPECT_EQ(tallies(stats), tallies(ref_stats)) << where;
  EXPECT_EQ(got, want) << where;
  EXPECT_TRUE(stats.consistent()) << where;
  EXPECT_EQ(stats.packets, before.packets + 1) << where;
  EXPECT_EQ(decode(wire.data(), wire.size()), reference_decode(wire)) << where;
  return {bucket_of(before, stats), std::move(got)};
}

// ---- corpus ----

Bytes ptr_query(util::Rng& rng) {
  auto wire = make_ptr_query_packet(static_cast<std::uint16_t>(rng.next()),
                                    net::IPv4Addr(static_cast<std::uint32_t>(rng.next())));
  // Letter case is free on the wire; the classifier must not care.
  for (std::size_t i = 12; i < wire.size(); ++i) {
    if (wire[i] >= 'a' && wire[i] <= 'z' && rng.chance(0.3)) wire[i] -= 'a' - 'A';
  }
  return wire;
}

Bytes ptr_response(util::Rng& rng) {
  const net::IPv4Addr originator(static_cast<std::uint32_t>(rng.next()));
  const Message query = Message::ptr_query(static_cast<std::uint16_t>(rng.next()), originator);
  std::vector<ResourceRecord> answers;
  if (rng.chance(0.7)) {
    answers.push_back(ResourceRecord{.name = query.questions.front().name,
                                     .rtype = QType::kPTR,
                                     .ttl = 300,
                                     .rdata = RData{*DnsName::parse("host.example.net")}});
  }
  return encode(Message::response_to(query, rng.chance(0.5) ? RCode::kNoError
                                                            : RCode::kNXDomain,
                                     std::move(answers)));
}

Bytes forward_query(util::Rng& rng) {
  static const char* kNames[] = {"mail.example.com", "www.example.jp", "ns1.isp.net",
                                 "4.3.2.1.in-addr.arpa.example.com"};
  Message m;
  m.id = static_cast<std::uint16_t>(rng.next());
  m.recursion_desired = true;
  const QType types[] = {QType::kA, QType::kAAAA, QType::kMX, QType::kPTR};
  m.questions.push_back(Question{.name = *DnsName::parse(kNames[rng.below(4)]),
                                 .qtype = types[rng.below(4)]});
  if (rng.chance(0.5)) {
    // A trailing opaque record (an EDNS-style additional) and an A record.
    m.additionals.push_back(ResourceRecord{.name = DnsName{},
                                           .rtype = static_cast<QType>(41),
                                           .rdata = RData{Bytes{0, 10, 0, 4, 1, 2, 3, 4}}});
    m.additionals.push_back(ResourceRecord{.name = m.questions.front().name,
                                           .rtype = QType::kA,
                                           .rdata = RData{net::IPv4Addr(0x0a000001)}});
  }
  return encode(m);
}

struct CorpusCase {
  const char* name;
  Bytes (*make)(util::Rng&);
  const char* home;  ///< the bucket an intact packet of this kind lands in
  std::uint64_t seed;
};

void PrintTo(const CorpusCase& c, std::ostream* os) { *os << c.name << "_" << c.seed; }

class CaptureOracle : public ::testing::TestWithParam<CorpusCase> {};

// 3 corpora x 4 seeds x 10k = 120k mutants per ctest run.
TEST_P(CaptureOracle, MutantsLandInTheReferenceBucket) {
  constexpr int kTrials = 10'000;
  const CorpusCase& c = GetParam();
  util::Rng rng(c.seed);
  util::ByteMutator mutator(c.seed * 0x9e3779b97f4a7c15ULL + 7);
  CaptureStats stats, ref_stats;
  const auto registry_before = registry_tallies();
  std::size_t malformed = 0, home = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Bytes wire = c.make(rng);
    const auto trace = mutator.mutate_n(wire, rng.below(4));  // 0 keeps it intact
    const std::string where = std::string(c.name) + " seed=" + std::to_string(c.seed) +
                              " trial=" + std::to_string(trial) +
                              " trace=" + util::describe(trace);
    const std::string bucket = check_agrees(wire, stats, ref_stats, where).bucket;
    malformed += bucket == "malformed";
    home += bucket == c.home;
    if (::testing::Test::HasFailure()) return;  // one replayable report, not thousands
  }
  EXPECT_EQ(stats.packets, static_cast<std::uint64_t>(kTrials));
#if DNSBS_METRICS_ENABLED
  const auto registry_after = registry_tallies();
  const auto local = tallies(stats);
  for (std::size_t i = 0; i < kBuckets.size(); ++i) {
    EXPECT_EQ(registry_after[i] - registry_before[i], local[i]) << kBuckets[i];
  }
#else
  (void)registry_before;
#endif
  // The corpus reaches past the first checks: intact packets land in
  // their kind's bucket, and mutation reaches malformed.
  EXPECT_GT(home, 0u) << c.home;
  EXPECT_GT(malformed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, CaptureOracle,
    ::testing::Values(CorpusCase{"ptr_query", ptr_query, "accepted", 11},
                      CorpusCase{"ptr_query", ptr_query, "accepted", 12},
                      CorpusCase{"ptr_query", ptr_query, "accepted", 13},
                      CorpusCase{"ptr_query", ptr_query, "accepted", 14},
                      CorpusCase{"response", ptr_response, "responses", 21},
                      CorpusCase{"response", ptr_response, "responses", 22},
                      CorpusCase{"response", ptr_response, "responses", 23},
                      CorpusCase{"response", ptr_response, "responses", 24},
                      CorpusCase{"forward", forward_query, "non_ptr", 31},
                      CorpusCase{"forward", forward_query, "non_ptr", 32},
                      CorpusCase{"forward", forward_query, "non_ptr", 33},
                      CorpusCase{"forward", forward_query, "non_ptr", 34}));

// ---- hand cases ----

/// Raw wire builder: header fields, labels, pointers and RR bodies.
struct Wire {
  Bytes bytes;

  Wire& u8(unsigned v) {
    bytes.push_back(static_cast<std::uint8_t>(v));
    return *this;
  }
  Wire& u16(unsigned v) { return u8(v >> 8).u8(v & 0xff); }
  Wire& u32(std::uint32_t v) { return u16(v >> 16).u16(v & 0xffff); }
  Wire& label(std::string_view text) {
    u8(static_cast<unsigned>(text.size()));
    bytes.insert(bytes.end(), text.begin(), text.end());
    return *this;
  }
  /// Labels then the root byte.
  Wire& name(std::initializer_list<std::string_view> labels) {
    for (const std::string_view l : labels) label(l);
    return u8(0);
  }
  Wire& pointer(unsigned offset) { return u16(0xc000 | offset); }
  /// Header: id 0x1234, the given flags and section counts.
  static Wire header(unsigned flags, unsigned qd, unsigned an = 0, unsigned ns = 0,
                     unsigned ar = 0) {
    Wire w;
    w.u16(0x1234).u16(flags).u16(qd).u16(an).u16(ns).u16(ar);
    return w;
  }
};

constexpr unsigned kQuery = 0x0100;  // RD, opcode QUERY
constexpr unsigned kPtr = 12, kIn = 1;

Bytes ptr_question(std::initializer_list<std::string_view> labels, unsigned flags = kQuery,
                   unsigned qd = 1) {
  return Wire::header(flags, qd).name(labels).u16(kPtr).u16(kIn).bytes;
}

struct HandCase {
  const char* what;
  Bytes wire;
  const char* bucket;
  std::optional<net::IPv4Addr> originator = std::nullopt;
};

std::vector<HandCase> hand_cases() {
  using net::IPv4Addr;
  std::vector<HandCase> cases;
  const auto add = [&cases](const char* what, Bytes wire, const char* bucket,
                            std::optional<IPv4Addr> originator = std::nullopt) {
    cases.push_back(HandCase{what, std::move(wire), bucket, originator});
  };

  // Reverse names.
  add("plain", ptr_question({"4", "3", "2", "1", "in-addr", "arpa"}), "accepted",
      IPv4Addr::from_octets(1, 2, 3, 4));
  add("upper-case suffix", ptr_question({"4", "3", "2", "1", "IN-ADDR", "ARPA"}), "accepted",
      IPv4Addr::from_octets(1, 2, 3, 4));
  add("mixed-case suffix", ptr_question({"4", "3", "2", "1", "In-Addr", "aRPa"}), "accepted",
      IPv4Addr::from_octets(1, 2, 3, 4));
  add("zero-padded octets", ptr_question({"007", "00", "010", "255", "in-addr", "arpa"}),
      "accepted", IPv4Addr::from_octets(255, 10, 0, 7));
  add("4-digit octet", ptr_question({"0001", "3", "2", "1", "in-addr", "arpa"}),
      "non_reverse_name");
  add("4-digit high octet", ptr_question({"4", "3", "2", "0255", "in-addr", "arpa"}),
      "non_reverse_name");
  add("octet over 255", ptr_question({"4", "3", "2", "256", "in-addr", "arpa"}),
      "non_reverse_name");
  add("non-digit octet", ptr_question({"4", "3", "x", "1", "in-addr", "arpa"}),
      "non_reverse_name");
  add("signed octet", ptr_question({"4", "+3", "2", "1", "in-addr", "arpa"}),
      "non_reverse_name");
  add("three octets", ptr_question({"3", "2", "1", "in-addr", "arpa"}), "non_reverse_name");
  add("five octets", ptr_question({"5", "4", "3", "2", "1", "in-addr", "arpa"}),
      "non_reverse_name");
  add("ip6.arpa", ptr_question({"4", "3", "2", "1", "ip6", "arpa"}), "non_reverse_name");
  add("suffix near miss", ptr_question({"4", "3", "2", "1", "in-addr", "arpb"}),
      "non_reverse_name");
  add("root qname", ptr_question({}), "non_reverse_name");

  // Header policy.
  add("qdcount 0", Wire::header(kQuery, 0).bytes, "rejected_query");
  add("qdcount 2", Wire::header(kQuery, 2)
                       .name({"4", "3", "2", "1", "in-addr", "arpa"}).u16(kPtr).u16(kIn)
                       .label("5").pointer(14).u16(kPtr).u16(kIn).bytes,
      "rejected_query");
  add("qdcount 2, second truncated",
      ptr_question({"4", "3", "2", "1", "in-addr", "arpa"}, kQuery, 2), "malformed");
  add("opcode IQUERY", ptr_question({"4", "3", "2", "1", "in-addr", "arpa"}, 0x0800 | 0x0100),
      "rejected_query");
  add("opcode STATUS", ptr_question({"4", "3", "2", "1", "in-addr", "arpa"}, 0x1000),
      "rejected_query");
  add("response", ptr_question({"4", "3", "2", "1", "in-addr", "arpa"}, 0x8180), "responses");
  add("response with opcode 1", ptr_question({"4", "3", "2", "1", "in-addr", "arpa"}, 0x8800),
      "responses");
  add("qtype A", Wire::header(kQuery, 1).name({"4", "3", "2", "1", "in-addr", "arpa"})
                     .u16(1).u16(kIn).bytes,
      "non_ptr");
  add("qclass CH", Wire::header(kQuery, 1).name({"4", "3", "2", "1", "in-addr", "arpa"})
                       .u16(kPtr).u16(3).bytes,
      "non_ptr");

  // Compression inside the QNAME.  Header bytes 0..4 (id 0x0131, flags
  // 0x0132, qd 0x0001) read as labels "1", "2", then the root.
  add("qname pointer into header",
      Wire{}.u16(0x0131).u16(0x0132).u16(1).u16(0).u16(0).u16(0)
          .label("4").label("3").pointer(0).u16(kPtr).u16(kIn).bytes,
      "non_reverse_name");
  // an/ns/ar spell "\x04arpa\0", so the compressed name is a full reverse
  // name, but the counts then claim thousands of missing records.
  add("qname pointer into counts",
      Wire{}.u16(0x1234).u16(kQuery).u16(1).u16(0x0461).u16(0x7270).u16(0x6100)
          .label("4").label("3").label("2").label("1").label("in-addr").pointer(6)
          .u16(kPtr).u16(kIn).bytes,
      "malformed");
  add("qname pointer loop", Wire::header(kQuery, 1).label("4").pointer(12)
                                .u16(kPtr).u16(kIn).bytes,
      "malformed");
  add("qname forward pointer", Wire::header(kQuery, 1).pointer(40).u16(kPtr).u16(kIn).bytes,
      "malformed");
  add("qname reserved label type", Wire::header(kQuery, 1).u8(0x40).u8(0)
                                       .u16(kPtr).u16(kIn).bytes,
      "malformed");
  add("qname over 255 octets",
      Wire::header(kQuery, 1).name({std::string(63, 'a'), std::string(63, 'b'),
                                    std::string(63, 'c'), std::string(63, 'd')})
          .u16(kPtr).u16(kIn).bytes,
      "malformed");
  add("qname truncated", Wire::header(kQuery, 1).label("4").label("3").bytes, "malformed");

  // Trailing RR sections: every one is validated before the query counts.
  const auto with_rr = [](unsigned an, unsigned ar) {
    return Wire::header(kQuery, 1, an, 0, ar)
        .name({"4", "3", "2", "1", "in-addr", "arpa"}).u16(kPtr).u16(kIn);
  };
  add("answer A, compressed owner",
      with_rr(1, 0).pointer(12).u16(1).u16(kIn).u32(60).u16(4).u32(0x0a000001).bytes,
      "accepted", IPv4Addr::from_octets(1, 2, 3, 4));
  add("answer A, rdlength 5",
      with_rr(1, 0).pointer(12).u16(1).u16(kIn).u32(60).u16(5).u32(0x0a000001).u8(0).bytes,
      "malformed");
  add("answer A, rdlength 3",
      with_rr(1, 0).pointer(12).u16(1).u16(kIn).u32(60).u16(3).u8(1).u8(2).u8(3).bytes,
      "malformed");
  add("additional PTR, rdlength past the name",
      with_rr(0, 1).u8(0).u16(kPtr).u16(kIn).u32(60).u16(4).pointer(12).bytes, "malformed");
  add("additional PTR, rdlength matches",
      with_rr(0, 1).u8(0).u16(kPtr).u16(kIn).u32(60).u16(2).pointer(12).bytes, "accepted",
      IPv4Addr::from_octets(1, 2, 3, 4));
  add("additional CNAME, bad pointer in rdata",
      with_rr(0, 1).u8(0).u16(5).u16(kIn).u32(60).u16(2).pointer(0x3000).bytes, "malformed");
  add("additional TXT, rdlength beyond the end",
      with_rr(0, 1).u8(0).u16(16).u16(kIn).u32(60).u16(9).u8(3).u8('a').u8('b').bytes,
      "malformed");
  add("additional TXT, rdlength exact",
      with_rr(0, 1).u8(0).u16(16).u16(kIn).u32(60).u16(3).u8(2).u8('a').u8('b').bytes,
      "accepted", IPv4Addr::from_octets(1, 2, 3, 4));
  add("answer count with no data", with_rr(1, 0).bytes, "malformed");
  add("answer without rdlength", with_rr(1, 0).pointer(12).u16(1).u16(kIn).u32(60).bytes,
      "malformed");

  // Short and empty packets.
  add("empty", Bytes{}, "malformed");
  add("11-byte header", Bytes(11, 0), "malformed");
  return cases;
}

TEST(CaptureOracle, HandCasesLandInTheirBucket) {
  CaptureStats stats, ref_stats;
  const auto registry_before = registry_tallies();
  const auto cases = hand_cases();
  for (const HandCase& c : cases) {
    const Outcome outcome = check_agrees(c.wire, stats, ref_stats, c.what);
    EXPECT_EQ(outcome.bucket, c.bucket) << c.what;
    EXPECT_EQ(outcome.record.has_value(), c.originator.has_value()) << c.what;
    if (outcome.record && c.originator) {
      EXPECT_EQ(outcome.record->originator, *c.originator) << c.what;
    }
  }
#if DNSBS_METRICS_ENABLED
  const auto registry_after = registry_tallies();
  const auto local = tallies(stats);
  for (std::size_t i = 0; i < kBuckets.size(); ++i) {
    EXPECT_EQ(registry_after[i] - registry_before[i], local[i]) << kBuckets[i];
  }
#else
  (void)registry_before;
#endif
}

// The span-based reverse parse and the DnsName one agree on hand names.
TEST(CaptureOracle, ReverseParseOverViewsMatchesDnsName) {
  for (const char* text : {"4.3.2.1.in-addr.arpa", "007.0.0.10.IN-ADDR.ARPA",
                           "0001.3.2.1.in-addr.arpa", "256.3.2.1.in-addr.arpa",
                           "3.2.1.in-addr.arpa", "4.3.2.1.ip6.arpa", "a.b.c.d.e.f"}) {
    const DnsName name = *DnsName::parse(text);
    Message query;
    query.questions.push_back(Question{.name = name, .qtype = QType::kPTR});
    const auto wire = encode(query);
    QueryScan scan;
    ASSERT_TRUE(scan_query(wire.data(), wire.size(), scan)) << text;
    EXPECT_EQ(address_from_reverse(scan.qname), reference_address_from_reverse(name)) << text;
    EXPECT_EQ(address_from_reverse(name), reference_address_from_reverse(name)) << text;
  }
}

// Every octet label of 1-4 bytes over the digits and the bytes around
// them ('/' and ':' border '0' and '9'), a letter, a sign, NUL and 0xff:
// the branch-free view parse against util::parse_u64, one label position
// at a time.
TEST(CaptureOracle, EveryShortOctetLabelParsesAsTheReference) {
  const std::string alphabet = std::string("0123456789/:a+") + '\0' + '\xff';
  std::vector<std::string> labels;
  std::vector<std::string> shorter = {""};
  for (int length = 1; length <= 4; ++length) {
    std::vector<std::string> longer;
    for (const std::string& prefix : shorter) {
      for (const char c : alphabet) longer.push_back(prefix + c);
    }
    labels.insert(labels.end(), longer.begin(), longer.end());
    shorter = std::move(longer);
  }
  std::size_t accepted = 0;
  for (const std::string& label : labels) {
    for (std::size_t at = 0; at < 4; ++at) {
      std::vector<std::string> text = {"4", "3", "2", "1", "in-addr", "arpa"};
      text[at] = label;
      NameView view;
      view.count = text.size();
      for (std::size_t i = 0; i < text.size(); ++i) {
        view.labels[i] = {text[i].data(), static_cast<std::uint8_t>(text[i].size())};
      }
      const auto want = reference_address_from_reverse(DnsName::from_labels(text));
      ASSERT_EQ(address_from_reverse(view), want) << "label " << at << " = '" << label << "'";
      accepted += want.has_value();
    }
  }
  EXPECT_EQ(accepted, 4u * (10 + 100 + 256));  // every 1-3 digit spelling of 0..255
}

}  // namespace
}  // namespace dnsbs::dns
