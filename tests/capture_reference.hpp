// Reference implementation dns::record_from_packet is tested against: the
// classifier as it stood before capture decode stopped building a Message.
//
//   reference_decode                builds the whole Message, every name a
//                                   DnsName grown one std::string label at
//                                   a time, with its own copy of the name,
//                                   pointer and rdata rules
//   reference_address_from_reverse  d.c.b.a.in-addr.arpa from a DnsName via
//                                   util::parse_u64
//   reference_record_from_packet    the bucket order malformed -> response
//                                   -> rejected_query -> non_ptr ->
//                                   non_reverse_name -> accepted over them
//
// None of it shares code with src/dns/wire.cpp or src/dns/reverse.cpp
// beyond the Message/DnsName types, so a fault in the shared walk or the
// span-based reverse parse shows up as a disagreement.  It bumps no
// registry series; only the CaptureStats it is given.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/capture.hpp"
#include "dns/name.hpp"
#include "dns/wire.hpp"
#include "util/strings.hpp"

namespace dnsbs::dns {

namespace reference_detail {

class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  bool u16(std::uint16_t& v) {
    if (pos_ + 2 > size_) return false;
    v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return true;
  }
  bool u32(std::uint32_t& v) {
    std::uint16_t hi = 0, lo = 0;
    if (!u16(hi) || !u16(lo)) return false;
    v = (static_cast<std::uint32_t>(hi) << 16) | lo;
    return true;
  }
  std::size_t pos() const noexcept { return pos_; }

  bool name(DnsName& out) {
    std::vector<std::string> labels;
    std::size_t cursor = pos_;
    std::size_t jumps = 0;
    bool jumped = false;
    std::size_t after_first_pointer = 0;
    std::size_t wire_len = 1;
    while (true) {
      if (cursor >= size_) return false;
      const std::uint8_t len = data_[cursor];
      if ((len & 0xc0) == 0xc0) {
        if (cursor + 1 >= size_) return false;
        if (++jumps > 64) return false;
        const std::size_t target =
            (static_cast<std::size_t>(len & 0x3f) << 8) | data_[cursor + 1];
        if (!jumped) {
          after_first_pointer = cursor + 2;
          jumped = true;
        }
        if (target >= cursor) return false;
        cursor = target;
        continue;
      }
      if ((len & 0xc0) != 0) return false;
      ++cursor;
      if (len == 0) break;
      if (cursor + len > size_) return false;
      wire_len += 1 + static_cast<std::size_t>(len);
      if (wire_len > 255) return false;
      labels.emplace_back(reinterpret_cast<const char*>(data_ + cursor), len);
      cursor += len;
    }
    pos_ = jumped ? after_first_pointer : cursor;
    out = DnsName::from_labels(std::move(labels));
    return true;
  }

  bool bytes(std::size_t n, std::vector<std::uint8_t>& out) {
    if (n > size_ - pos_) return false;
    out.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return true;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

inline bool decode_rr(Decoder& dec, ResourceRecord& rr) {
  std::uint16_t rtype = 0, rclass = 0, rdlength = 0;
  if (!dec.name(rr.name) || !dec.u16(rtype) || !dec.u16(rclass) || !dec.u32(rr.ttl) ||
      !dec.u16(rdlength)) {
    return false;
  }
  rr.rtype = static_cast<QType>(rtype);
  rr.rclass = static_cast<QClass>(rclass);
  const std::size_t rdata_start = dec.pos();
  switch (rr.rtype) {
    case QType::kA: {
      std::uint32_t v = 0;
      if (rdlength != 4 || !dec.u32(v)) return false;
      rr.rdata.value = net::IPv4Addr(v);
      return true;
    }
    case QType::kPTR:
    case QType::kNS:
    case QType::kCNAME: {
      DnsName n;
      if (!dec.name(n)) return false;
      if (dec.pos() != rdata_start + rdlength) return false;
      rr.rdata.value = std::move(n);
      return true;
    }
    default: {
      std::vector<std::uint8_t> raw;
      if (!dec.bytes(rdlength, raw)) return false;
      rr.rdata.value = std::move(raw);
      return true;
    }
  }
}

}  // namespace reference_detail

inline std::optional<Message> reference_decode(std::span<const std::uint8_t> wire) {
  reference_detail::Decoder dec(wire.data(), wire.size());
  Message msg;
  std::uint16_t flags = 0, qd = 0, an = 0, ns = 0, ar = 0;
  if (!dec.u16(msg.id) || !dec.u16(flags) || !dec.u16(qd) || !dec.u16(an) || !dec.u16(ns) ||
      !dec.u16(ar)) {
    return std::nullopt;
  }
  msg.is_response = (flags & 0x8000) != 0;
  msg.opcode = static_cast<std::uint8_t>((flags >> 11) & 0xf);
  msg.authoritative = (flags & 0x0400) != 0;
  msg.truncated = (flags & 0x0200) != 0;
  msg.recursion_desired = (flags & 0x0100) != 0;
  msg.recursion_available = (flags & 0x0080) != 0;
  msg.rcode = static_cast<RCode>(flags & 0xf);
  for (std::uint16_t i = 0; i < qd; ++i) {
    Question q;
    std::uint16_t qtype = 0, qclass = 0;
    if (!dec.name(q.name) || !dec.u16(qtype) || !dec.u16(qclass)) return std::nullopt;
    q.qtype = static_cast<QType>(qtype);
    q.qclass = static_cast<QClass>(qclass);
    msg.questions.push_back(std::move(q));
  }
  for (auto [count, section] : {std::pair{an, &msg.answers}, std::pair{ns, &msg.authorities},
                                std::pair{ar, &msg.additionals}}) {
    for (std::uint16_t i = 0; i < count; ++i) {
      ResourceRecord rr;
      if (!reference_detail::decode_rr(dec, rr)) return std::nullopt;
      section->push_back(std::move(rr));
    }
  }
  return msg;
}

inline std::optional<net::IPv4Addr> reference_address_from_reverse(const DnsName& qname) {
  if (qname.label_count() != 6 || qname.label(4) != "in-addr" || qname.label(5) != "arpa") {
    return std::nullopt;
  }
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    std::uint64_t octet = 0;
    const std::string& label = qname.label(static_cast<std::size_t>(i));
    if (!util::parse_u64(label, octet) || octet > 255 || label.size() > 3) return std::nullopt;
    value = (value << 8) | static_cast<std::uint32_t>(octet);
  }
  return net::IPv4Addr(value);
}

inline std::optional<QueryRecord> reference_record_from_packet(
    std::span<const std::uint8_t> payload, util::SimTime time, net::IPv4Addr source,
    CaptureStats& stats) {
  ++stats.packets;
  const auto message = reference_decode(payload);
  if (!message) {
    ++stats.malformed;
    return std::nullopt;
  }
  if (message->is_response) {
    ++stats.responses;
    return std::nullopt;
  }
  if (message->opcode != 0 || message->questions.size() != 1) {
    ++stats.rejected_query;
    return std::nullopt;
  }
  const Question& q = message->questions.front();
  if (q.qtype != QType::kPTR || q.qclass != QClass::kIN) {
    ++stats.non_ptr;
    return std::nullopt;
  }
  const auto originator = reference_address_from_reverse(q.name);
  if (!originator) {
    ++stats.non_reverse_name;
    return std::nullopt;
  }
  ++stats.accepted;
  return QueryRecord{time, source, *originator, RCode::kNoError};
}

}  // namespace dnsbs::dns
