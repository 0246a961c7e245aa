#include "dns/reverse.hpp"

#include <cstdint>
#include <string_view>

namespace dnsbs::dns {

const DnsName& in_addr_arpa() {
  static const DnsName name = *DnsName::parse("in-addr.arpa");
  return name;
}

DnsName reverse_name(net::IPv4Addr addr) {
  return DnsName::from_labels({std::to_string(addr.octet(3)), std::to_string(addr.octet(2)),
                               std::to_string(addr.octet(1)), std::to_string(addr.octet(0)),
                               "in-addr", "arpa"});
}

namespace {

/// ASCII case-insensitive equality against a lowercase literal of at most
/// 8 bytes, as one word compare: OR-ing 0x20 folds exactly a letter's two
/// cases together, so it is applied where the literal has a letter and
/// every other position must match exactly.  `want` and `fold` fold to
/// constants.
template <std::size_t N>
bool equals_lower(std::string_view label, const char (&lower)[N]) noexcept {
  constexpr std::size_t kSize = N - 1;
  static_assert(kSize <= 8);
  if (label.size() != kSize) return false;
  std::uint64_t got = 0, want = 0, fold = 0;  // byte i at bits 8i
  for (std::size_t i = 0; i < kSize; ++i) {
    const auto c = static_cast<unsigned char>(lower[i]);
    got |= std::uint64_t{static_cast<unsigned char>(label[i])} << (8 * i);
    want |= std::uint64_t{c} << (8 * i);
    if (c >= 'a' && c <= 'z') fold |= std::uint64_t{0x20} << (8 * i);
  }
  return (got | fold) == want;
}

/// One octet label: 1-3 decimal digits of value at most 255.  Branch-free
/// over the label's length, which varies packet to packet and would
/// otherwise be mispredicted.  The three reads stay inside the label:
/// position 0, position 1 (0 in a one-digit label) and the last position;
/// the weights for the label's length give a repeated read weight 0.
bool parse_octet(std::string_view label, std::uint32_t& out) noexcept {
  const std::size_t size = label.size();
  if (size - 1 > 2) return false;  // empty (wraps) or over 3 digits
  static constexpr std::uint32_t kWeight[3][3] = {{1, 0, 0}, {10, 1, 0}, {100, 10, 1}};
  const std::uint32_t* weight = kWeight[size - 1];
  const auto digit = [&label](std::size_t i) -> std::uint32_t {
    return static_cast<unsigned char>(label[i]) - std::uint32_t{'0'};
  };
  const std::uint32_t d0 = digit(0), d1 = digit(size > 1), d2 = digit(size - 1);
  out = d0 * weight[0] + d1 * weight[1] + d2 * weight[2];
  return (d0 <= 9) & (d1 <= 9) & (d2 <= 9) & (out <= 255);
}

/// d.c.b.a.in-addr.arpa from its six labels, leftmost first.
template <class Labels>
std::optional<net::IPv4Addr> address_from_labels(const Labels& qname) {
  if (!equals_lower(qname.label(4), "in-addr") || !equals_lower(qname.label(5), "arpa")) {
    return std::nullopt;
  }
  std::uint32_t value = 0;
  // Labels are reversed: label(0) is the low octet.
  for (std::size_t i = 4; i-- > 0;) {
    std::uint32_t octet = 0;
    if (!parse_octet(qname.label(i), octet)) return std::nullopt;
    value = (value << 8) | octet;
  }
  return net::IPv4Addr(value);
}

}  // namespace

std::optional<net::IPv4Addr> address_from_reverse(const DnsName& qname) {
  if (qname.label_count() != 6) return std::nullopt;
  return address_from_labels(qname);
}

std::optional<net::IPv4Addr> address_from_reverse(const NameView& qname) {
  if (qname.count != 6) return std::nullopt;
  return address_from_labels(qname);
}

bool is_reverse_name(const DnsName& name) { return name.ends_in(in_addr_arpa()); }

DnsName reverse_zone(net::IPv4Addr addr, ReverseZoneLevel level) {
  switch (level) {
    case ReverseZoneLevel::kRoot:
      return in_addr_arpa();
    case ReverseZoneLevel::kSlash8:
      return in_addr_arpa().child(std::to_string(addr.octet(0)));
    case ReverseZoneLevel::kSlash16:
      return in_addr_arpa()
          .child(std::to_string(addr.octet(0)))
          .child(std::to_string(addr.octet(1)));
    case ReverseZoneLevel::kSlash24:
      return in_addr_arpa()
          .child(std::to_string(addr.octet(0)))
          .child(std::to_string(addr.octet(1)))
          .child(std::to_string(addr.octet(2)));
  }
  return in_addr_arpa();
}

net::Prefix zone_prefix(net::IPv4Addr addr, ReverseZoneLevel level) {
  switch (level) {
    case ReverseZoneLevel::kRoot: return net::Prefix(net::IPv4Addr(0), 0);
    case ReverseZoneLevel::kSlash8: return net::Prefix(addr, 8);
    case ReverseZoneLevel::kSlash16: return net::Prefix(addr, 16);
    case ReverseZoneLevel::kSlash24: return net::Prefix(addr, 24);
  }
  return net::Prefix(net::IPv4Addr(0), 0);
}

}  // namespace dnsbs::dns
