// DNS wire-format codec (RFC 1035 §4).
//
// The sensor normally consumes query logs, but a production deployment
// captures packets at the authority (paper §III-A), so the library ships a
// real message codec: header, question and RR sections, and name
// compression on both encode and decode (with pointer-loop protection).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "dns/name.hpp"
#include "net/ipv4.hpp"

namespace dnsbs::dns {

enum class QType : std::uint16_t {
  kA = 1,
  kNS = 2,
  kCNAME = 5,
  kSOA = 6,
  kPTR = 12,
  kMX = 15,
  kTXT = 16,
  kAAAA = 28,
  kANY = 255,
};

enum class QClass : std::uint16_t { kIN = 1, kCH = 3, kANY = 255 };

enum class RCode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNXDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

const char* to_string(QType t) noexcept;
const char* to_string(RCode r) noexcept;

struct Question {
  DnsName name;
  QType qtype = QType::kA;
  QClass qclass = QClass::kIN;

  bool operator==(const Question&) const = default;
};

/// RDATA variants we model: addresses (A), names (PTR/NS/CNAME), opaque.
struct RData {
  std::variant<net::IPv4Addr, DnsName, std::vector<std::uint8_t>> value;

  bool operator==(const RData&) const = default;
};

struct ResourceRecord {
  DnsName name;
  QType rtype = QType::kA;
  QClass rclass = QClass::kIN;
  std::uint32_t ttl = 0;
  RData rdata;

  bool operator==(const ResourceRecord&) const = default;
};

struct Message {
  std::uint16_t id = 0;
  bool is_response = false;
  std::uint8_t opcode = 0;
  bool authoritative = false;
  bool truncated = false;
  bool recursion_desired = false;
  bool recursion_available = false;
  RCode rcode = RCode::kNoError;

  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;

  bool operator==(const Message&) const = default;

  /// Convenience: builds a PTR query for an originator address with the
  /// given id (recursion desired, as stub resolvers send).
  static Message ptr_query(std::uint16_t id, net::IPv4Addr originator);

  /// Convenience: builds a response to `query` with the given rcode and
  /// answers (copies the question section).
  static Message response_to(const Message& query, RCode rcode,
                             std::vector<ResourceRecord> answers = {});
};

/// Encodes a message; applies name compression across all sections.
/// Returns nullopt for messages the wire format cannot represent: a label
/// over 63 bytes or empty, a name over 255 octets, a section with more
/// than 65535 entries, or RDATA over 65535 bytes.  (Such messages cannot
/// come from decode(); they arise from hand-built DnsName::from_labels
/// values or oversized sections.)
std::optional<std::vector<std::uint8_t>> try_encode(const Message& msg);

/// As try_encode, but returns an empty vector on unencodable input (any
/// valid encoding is at least the 12 header bytes, so empty is
/// unambiguous).  Kept for call sites that encode known-valid messages.
std::vector<std::uint8_t> encode(const Message& msg);

/// Decodes a message; nullopt on malformed input (truncation, bad pointer,
/// label overflow, pointer loops).
std::optional<Message> decode(const std::vector<std::uint8_t>& wire);
std::optional<Message> decode(const std::uint8_t* data, std::size_t size);

/// What packet capture classifies a query on, read without building a
/// Message: the header bits, the question count, and the first question
/// with its name as views into the packet (qname.count is 0 when there is
/// no question).
struct QueryScan {
  bool is_response = false;
  std::uint8_t opcode = 0;
  std::uint16_t qdcount = 0;
  NameView qname;
  QType qtype = QType::kA;
  QClass qclass = QClass::kIN;
};

/// The same walk as decode() with a different sink: every section is
/// validated exactly as decode() validates it, so this returns false
/// exactly when decode() returns nullopt, but nothing is allocated and
/// only `out` is filled.  `out.qname` views `data`.
bool scan_query(const std::uint8_t* data, std::size_t size, QueryScan& out);

}  // namespace dnsbs::dns
