// Reverse-DNS (in-addr.arpa) codec.
//
// The sensor's raw signal is PTR queries whose QNAME encodes the originator
// address: 1.2.3.4 -> 4.3.2.1.in-addr.arpa.  This header converts both ways
// and exposes the zone-cut structure of the reverse tree (the delegation
// levels whose NS caching attenuates what each authority sees).
#pragma once

#include <optional>

#include "dns/name.hpp"
#include "net/ipv4.hpp"

namespace dnsbs::dns {

/// Levels of the reverse tree at which an authority may sit.  Deeper levels
/// see less-attenuated backscatter (paper §II: the final authority sees all
/// queriers, roots see a cached/filtered fraction).
enum class ReverseZoneLevel {
  kRoot = 0,    ///< "." / in-addr.arpa itself (root servers)
  kSlash8 = 1,  ///< X.in-addr.arpa (e.g. a ccTLD-delegated /8)
  kSlash16 = 2, ///< Y.X.in-addr.arpa
  kSlash24 = 3, ///< Z.Y.X.in-addr.arpa (the final authority zone)
};

/// "in-addr.arpa" as a DnsName.
const DnsName& in_addr_arpa();

/// Builds the PTR QNAME for an address: 1.2.3.4 -> "4.3.2.1.in-addr.arpa".
DnsName reverse_name(net::IPv4Addr addr);

/// Recovers the address from a full reverse QNAME; nullopt if the name is
/// not of the exact d.c.b.a.in-addr.arpa form.
std::optional<net::IPv4Addr> address_from_reverse(const DnsName& qname);

/// The same over a name read straight from a packet: "in-addr" and "arpa"
/// match in any letter case, and each octet label is 1-3 decimal digits
/// of value at most 255.
std::optional<net::IPv4Addr> address_from_reverse(const NameView& qname);

/// True if `name` is underneath in-addr.arpa at all.
bool is_reverse_name(const DnsName& name);

/// The zone name covering `addr` at a given level:
/// level kSlash8 for 1.2.3.4 -> "1.in-addr.arpa".
DnsName reverse_zone(net::IPv4Addr addr, ReverseZoneLevel level);

/// Prefix corresponding to a reverse zone level for an address
/// (kSlash16 for 1.2.3.4 -> 1.2.0.0/16).
net::Prefix zone_prefix(net::IPv4Addr addr, ReverseZoneLevel level);

}  // namespace dnsbs::dns
